"""Line-oriented text format for workbench objects.

Grammar (one declaration per line; `#` starts a comment when it appears at
the beginning of a line or after whitespace; blank lines are skipped):

    space <name> basis <lbl> [<lbl> ...]
    vacuum <space> <lbl>
    y <space> <lbl> <lbl> -> <seriesvec>

    twist <name> <second-space> <first-space>   # R: second⊗first -> first⊗second
    r <lbl> <lbl> -> <seriesvec>

    smap <name> <space>
    s <lbl> <lbl> -> <seriesvec>

    coalg <name> <space>
    delta <lbl> -> <seriesvec>
    eps <lbl> -> <rational>

    action <name> <coalg> <module-space>
    a <lbl> <lbl> -> <seriesvec>

    coaction <name> <coalg> <comodule-space>
    rho <lbl> -> <seriesvec>

    module <name> <algebra-space> <module-space>
    m <lbl> <lbl> -> <seriesvec>

A <seriesvec> is a `;`-joined list of `(<lbl>[,<lbl>...]) : <series>` items;
omitted target tuples are zero.  Series literals follow the exact-series
syntax `c@(e1[,e2[,e3]])` joined by `+`; a bare rational is the constant
term.  Basis labels may themselves contain balanced parentheses (as the
pair labels of product algebras do); commas split target tuples only at the
top parenthesis level.
"""

from .linalg import SeriesMap, SeriesVector, Space
from .nva import Nva, NvaModule
from .series import DEFAULT_RANGE, SeriesError, format_series, parse_series


class ParseError(ValueError):
    def __init__(self, line, col, expected):
        self.line = line
        self.col = col
        self.expected = expected
        super().__init__(f"line {line}, column {col}: expected {expected}")


class _Block:
    def __init__(self, kind, header, lineno):
        self.kind = kind
        self.header = header
        self.lineno = lineno
        self.lines = {}  # key-tuple -> (seriesvec-text, lineno)


class WorkbenchFile:
    """Parsed declarations, resolvable into workbench domain objects."""

    def __init__(self, rng):
        self.spaces = {}
        self.vacuums = {}
        self.ys = {}      # space name -> {(l1,l2): (vec text, lineno)}
        self.blocks = {}  # (kind, name) -> _Block
        self.rng = rng

    # -- resolution into domain objects --------------------------------------

    def space(self, name):
        if name not in self.spaces:
            raise ParseError(0, 0, f"declared space {name!r}")
        return self.spaces[name]

    def algebra(self, name):
        sp = self.space(name)
        if name not in self.vacuums:
            raise ParseError(0, 0, f"vacuum declaration for space {name!r}")
        return Nva(name, sp, self.vacuums[name], self._table(
            self.ys.get(name, {}), (sp, sp), (sp,), ("x",)))

    def algebras(self):
        return {name: self.algebra(name) for name in self.spaces
                if name in self.vacuums}

    def _block(self, kind, name, *readers):
        """The lines of a block and the objects its header names, each read
        by its reader; an error in one is placed at the header's line."""
        if (kind, name) not in self.blocks:
            raise ParseError(0, 0, f"{kind} block named {name!r}")
        b = self.blocks[(kind, name)]
        try:
            return b.lines, [read(n) for read, n in zip(readers, b.header)]
        except ParseError as exc:
            if exc.line:
                raise
            raise ParseError(b.lineno, 1, exc.expected) from None

    def _table(self, lines, dom, cod, variables):
        """The map dom -> cod with a column per item of lines, {key:
        (seriesvec-text, lineno)}, each key's labels those of dom."""
        return SeriesMap(dom, cod, {
            _labels(key, dom, lineno):
            _parse_vec(text, cod, variables, self.rng, lineno)
            for key, (text, lineno) in lines.items()})

    def twist(self, name):
        from .twist import TwistOp

        lines, (second, first) = self._block("twist", name, self.algebra,
                                             self.algebra)
        return TwistOp(name, first, second, self._table(
            lines, (second.space, first.space), (first.space, second.space),
            ("x",)))

    def smap(self, name):
        from .quantum import SMap

        lines, (alg,) = self._block("smap", name, self.algebra)
        sp2 = (alg.space, alg.space)
        return SMap(name, alg, self._table(lines, sp2, sp2, ("x",)))

    def coalg(self, name):
        from .smash import CoalgebraData

        lines, (alg,) = self._block("coalg", name, self.algebra)
        sp = alg.space
        dcols, ecols = {}, {}
        for (tag, lbl), (text, lineno) in lines.items():
            key = _labels((lbl,), (sp,), lineno)
            if tag == "delta":
                dcols[key] = _parse_vec(text, (sp, sp), (), self.rng, lineno)
            else:
                ecols[key] = _parse_vec(text, (), (), self.rng, lineno,
                                        scalar=True)
        return CoalgebraData(alg, SeriesMap((sp,), (sp, sp), dcols),
                             SeriesMap((sp,), (), ecols))

    def action(self, name):
        from .smash import ModuleAlgebraData

        lines, (coalg, module) = self._block("action", name, self.coalg,
                                             self.algebra)
        return ModuleAlgebraData(coalg, module, self._table(
            lines, (coalg.algebra.space, module.space), (module.space,),
            ("x",)))

    def coaction(self, name):
        from .smash import ComoduleAlgebraData

        lines, (coalg, comodule) = self._block("coaction", name, self.coalg,
                                               self.algebra)
        return ComoduleAlgebraData(coalg, comodule, self._table(
            lines, (comodule.space,), (coalg.algebra.space, comodule.space),
            ()))

    def module(self, name):
        lines, (alg, msp) = self._block("module", name, self.algebra,
                                        self.space)
        return NvaModule(name, alg, msp, self._table(
            lines, (alg.space, msp), (msp,), ("x",)))


# ---------------------------------------------------------------------------
# tokenizing helpers


def _strip_comment(line):
    out = []
    for i, ch in enumerate(line):
        if ch == "#" and (i == 0 or line[i - 1].isspace()):
            break
        out.append(ch)
    return "".join(out)


def _split_top(text, sep):
    """Split on sep at parenthesis depth zero."""
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_target(item, lineno):
    """`(lbl[,lbl...]) : series` -> (labels tuple, series text)."""
    item = item.strip()
    if not item.startswith("("):
        raise ParseError(lineno, 1, "target tuple starting with '('")
    depth = 0
    for i, ch in enumerate(item):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                inner = item[1:i]
                rest = item[i + 1:].strip()
                if not rest.startswith(":"):
                    raise ParseError(lineno, i + 2, "':' after target tuple")
                labels = tuple(t.strip() for t in _split_top(inner, ","))
                return labels, rest[1:].strip()
    raise ParseError(lineno, len(item), "closing ')' in target tuple")


def _labels(labels, spaces, lineno):
    """The labels, each one of the basis of its space; a ParseError at
    lineno otherwise."""
    for lbl, sp in zip(labels, spaces):
        if lbl not in sp.basis:
            raise ParseError(lineno, 1, f"basis label of {sp.name}, got {lbl!r}")
    return labels


def _parse_vec(text, spaces, variables, rng, lineno, scalar=False):
    entries = {}
    text = text.strip()
    if text == "0" or not text:
        return SeriesVector(spaces, {})
    if scalar:
        try:
            return SeriesVector((), {(): parse_series(text, (), rng)})
        except SeriesError as exc:
            raise ParseError(lineno, 1, f"rational literal ({exc})")
    for item in _split_top(text, ";"):
        labels, lit = _parse_target(item, lineno)
        if len(labels) != len(spaces):
            raise ParseError(lineno, 1,
                             f"{len(spaces)} target label(s), got {labels}")
        if labels in entries:
            raise ParseError(lineno, 1, f"one item per target tuple "
                                        f"({','.join(labels)} repeated)")
        _labels(labels, spaces, lineno)
        try:
            entries[labels] = parse_series(lit, variables, rng)
        except SeriesError as exc:
            raise ParseError(lineno, 1, f"series literal ({exc})")
    return SeriesVector(spaces, entries)


# ---------------------------------------------------------------------------
# parsing


_BLOCK_HEADS = {"twist": 2, "smap": 1, "coalg": 1, "action": 2,
                "coaction": 2, "module": 2}
_BLOCK_LINES = {"r": ("twist", 2), "s": ("smap", 2), "delta": ("coalg", 1),
                "eps": ("coalg", 1), "a": ("action", 2),
                "rho": ("coaction", 1), "m": ("module", 2)}


def parse_file(text, rng=DEFAULT_RANGE):
    wf = WorkbenchFile(rng=rng)
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        toks = line.split(None)
        head = toks[0]

        if head == "space":
            if len(toks) < 4 or toks[2] != "basis":
                raise ParseError(lineno, 1,
                                 "'space <name> basis <lbl> [<lbl> ...]'")
            name, labels = toks[1], toks[3:]
            if name in wf.spaces:
                raise ParseError(lineno, 1, f"fresh space name ({name!r} reused)")
            if len(set(labels)) != len(labels):
                raise ParseError(lineno, 1, "distinct basis labels")
            wf.spaces[name] = Space(name, tuple(labels))
            current = None
        elif head == "vacuum":
            if len(toks) != 3:
                raise ParseError(lineno, 1, "'vacuum <space> <lbl>'")
            sp = wf.spaces.get(toks[1])
            if sp is None:
                raise ParseError(lineno, 1, f"declared space ({toks[1]!r})")
            if toks[2] not in sp.basis:
                raise ParseError(lineno, 1, f"basis label of {toks[1]}")
            if toks[1] in wf.vacuums:
                raise ParseError(lineno, 1,
                                 f"one vacuum per space ({toks[1]!r} repeated)")
            wf.vacuums[toks[1]] = toks[2]
            current = None
        elif head == "y":
            body = _arrow_body(line, toks, 4, lineno,
                               "'y <space> <lbl> <lbl> -> <seriesvec>'")
            spname, l1, l2 = toks[1], toks[2], toks[3]
            if spname not in wf.spaces:
                raise ParseError(lineno, 1, f"declared space ({spname!r})")
            ys = wf.ys.setdefault(spname, {})
            if (l1, l2) in ys:
                raise ParseError(lineno, 1,
                                 f"one y line per pair ({l1} {l2} repeated)")
            ys[(l1, l2)] = (body, lineno)
            current = None
        elif head in _BLOCK_HEADS:
            want = _BLOCK_HEADS[head]
            if len(toks) != 2 + want:
                raise ParseError(lineno, 1,
                                 f"'{head} <name>' plus {want} space/coalg name(s)")
            name, header = toks[1], tuple(toks[2:])
            key = (head, name)
            if key in wf.blocks:
                raise ParseError(lineno, 1, f"fresh {head} name ({name!r} reused)")
            current = _Block(head, header, lineno)
            wf.blocks[key] = current
        elif head in _BLOCK_LINES:
            kind, arity = _BLOCK_LINES[head]
            if current is None or current.kind != kind:
                raise ParseError(lineno, 1,
                                 f"'{head}' line inside a {kind} block")
            body = _arrow_body(line, toks, 1 + arity, lineno,
                               f"'{head} <lbl>... -> <seriesvec>'")
            labels = tuple(toks[1:1 + arity])
            key = (head, *labels) if kind == "coalg" else labels
            if key in current.lines:
                raise ParseError(lineno, 1, f"one {head} line per label tuple "
                                            f"({' '.join(labels)} repeated)")
            current.lines[key] = (body, lineno)
        else:
            raise ParseError(lineno, 1, f"declaration keyword, got {head!r}")
    return wf


def _arrow_body(line, toks, npre, lineno, expected):
    if len(toks) < npre + 2 or toks[npre] != "->":
        raise ParseError(lineno, 1, expected)
    return line.split("->", 1)[1].strip()


# ---------------------------------------------------------------------------
# emission


def _emit_vec(vec):
    if vec.is_zero():
        return "0"
    return " ; ".join(
        f"({','.join(key)}):{format_series(s)}"
        for key, s in sorted(vec.entries.items())
    )


def emit_nva(nva, out=None):
    lines = [] if out is None else out
    lines.append(f"space {nva.name} basis {' '.join(nva.space.basis)}")
    lines.append(f"vacuum {nva.name} {nva.vacuum}")
    for (a, b) in sorted(nva.y.columns):
        lines.append(f"y {nva.name} {a} {b} -> {_emit_vec(nva.y.column((a, b)))}")
    return "\n".join(lines) + "\n" if out is None else None


def emit_twist(t):
    lines = []
    emit_nva(t.first, lines)
    if t.second.name != t.first.name:
        emit_nva(t.second, lines)
    lines.append(f"twist {t.name} {t.second.name} {t.first.name}")
    for key in sorted(t.table.columns):
        lines.append(f"r {key[0]} {key[1]} -> {_emit_vec(t.table.column(key))}")
    return "\n".join(lines) + "\n"


def emit_smap(s):
    lines = []
    emit_nva(s.algebra, lines)
    lines.append(f"smap {s.name} {s.algebra.name}")
    for key in sorted(s.table.columns):
        lines.append(f"s {key[0]} {key[1]} -> {_emit_vec(s.table.column(key))}")
    return "\n".join(lines) + "\n"


def emit_coalg(c, name):
    lines = []
    emit_nva(c.algebra, lines)
    lines.append(f"coalg {name} {c.algebra.name}")
    for lbl in c.algebra.space.basis:
        lines.append(f"delta {lbl} -> {_emit_vec(c.coproduct.column((lbl,)))}")
    for lbl in c.algebra.space.basis:
        lines.append(f"eps {lbl} -> {format_series(c.counit.column((lbl,)).get(()))}")
    return "\n".join(lines) + "\n"
