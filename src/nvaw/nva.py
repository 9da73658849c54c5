"""Nonlocal vertex algebras with finite-dimensional underlying space.

The vertex operator is stored as a SeriesMap sending a pair of basis labels
(u, v) to the vector Y(u,x)v, a Laurent polynomial in the distinguished
variable "x".  All axiom checks report a certified outcome per instance:
an identity can hold exactly, hold on the truncation window only, fail with
a witness, or fail to admit a clearing exponent k below the cap.
"""

from .series import _EXACT, Eq, EqResult, Q, Series, SeriesError, window_equal
from .linalg import _ZERO, SeriesMap, SeriesVector, _vector, basis_tuples


DEFAULT_KMAX = 10


class Outcome:
    """The verdict of a check item: EXACT_PASS, WINDOW_PASS, FAIL or
    NO_K_FOUND, compared by identity, with plain name, value and ok."""

    __slots__ = ("name", "value", "ok")

    def __init__(self, name, value, ok):
        self.name = name
        self.value = value
        self.ok = ok

    def __repr__(self):
        return f"<Outcome.{self.name}: {self.value!r}>"


Outcome.EXACT_PASS = Outcome("EXACT_PASS", "exact-pass", True)
Outcome.WINDOW_PASS = Outcome("WINDOW_PASS", "window-pass", True)
Outcome.FAIL = Outcome("FAIL", "fail", False)
Outcome.NO_K_FOUND = Outcome("NO_K_FOUND", "no-k-found", False)


class CheckItem:
    __slots__ = ("name", "outcome", "detail")

    def __init__(self, name, outcome, detail):
        self.name = name
        self.outcome = outcome
        self.detail = detail

    @property
    def ok(self):
        return self.outcome.ok


class ReportItems:
    """The items of a report's entries, read-only and in order."""

    def __init__(self, entries):
        self._entries = entries

    def __len__(self):
        return sum(1 if type(e) is CheckItem else len(e[1])
                   for e in self._entries)

    def __iter__(self):
        # a run's items, most of a large report, are made without __init__
        new, passed = object.__new__, Outcome.EXACT_PASS
        for entry in self._entries:
            if type(entry) is CheckItem:
                yield entry
                continue
            at, ends = entry
            for end in ends:
                item = new(CheckItem)
                item.name = at + end
                item.outcome = passed
                item.detail = ""
                yield item

    def __getitem__(self, index):
        return list(self)[index]


class CheckReport:
    """The verdicts of a check, in order: each entry a CheckItem, or a run
    of 0 == 0 identities held as (name prefix, tuple of name suffixes), an
    exact-pass item with no detail per suffix.  `items` builds a run's
    items only while they are read; its length, `ok`, `exact` and
    `failures()` read a run without expanding it."""

    def __init__(self, title):
        self.title = title
        self._entries = []

    @property
    def items(self):
        return ReportItems(self._entries)

    def add(self, name, outcome, detail=""):
        self._entries.append(CheckItem(name, outcome, detail))

    def run(self, prefix, ends):
        """Add an exact-pass item, with no detail, for each prefix + end."""
        if ends:
            self._entries.append((prefix, tuple(ends)))

    def verdict(self, name, res):
        """Add the item for an EqResult: its outcome, and its witness as the
        detail when it has one.  Returns res."""
        kind = res.kind
        outcome = (Outcome.EXACT_PASS if kind is Eq.EXACT else
                   Outcome.WINDOW_PASS if kind is Eq.WINDOW else Outcome.FAIL)
        self.add(name, outcome,
                 f"witness {res.witness}" if res.witness is not None else "")
        return res

    def compare(self, name, lhs, rhs):
        """Certified comparison of two SeriesVectors, added as one item.
        Returns the EqResult."""
        return self.verdict(name, window_equal_vec(lhs, rhs))

    def compare_maps(self, items):
        """Certified comparison of SeriesMaps, one item per (name, key,
        lhs, rhs) of items: the column of lhs at key against that of rhs.
        At a key where neither map has a column, 0 == 0, the exact-pass
        item joins a run with nothing built or compared.  Returns whether
        every item passed."""
        dead, ok = [], True
        for name, key, lhs, rhs in items:
            if key in lhs.columns or key in rhs.columns:
                self.run("", dead)
                dead = []
                ok = bool(self.compare(name, lhs.column(key),
                                       rhs.column(key))) and ok
            else:
                dead.append(name)
        self.run("", dead)
        return ok

    def extend(self, other):
        self._entries += other._entries

    @property
    def ok(self):
        return not self.failures()

    @property
    def exact(self):
        return all(e.outcome is Outcome.EXACT_PASS for e in self._entries
                   if type(e) is CheckItem)

    def failures(self):
        return [e for e in self._entries if type(e) is CheckItem and not e.ok]

    def summary(self):
        lines = [f"== {self.title}: {'PASS' if self.ok else 'FAIL'} "
                 f"({len(self.items)} checks)"]
        for item in self.items:
            mark = "ok " if item.ok else "FAIL"
            lines.append(f"  [{mark}] {item.name}: {item.outcome.value}"
                         + (f" ({item.detail})" if item.detail else ""))
        return "\n".join(lines)


# ---------------------------------------------------------------------------


class Nva:
    """A finite-dimensional nonlocal vertex algebra (V, Y, 1)."""

    def __init__(self, name, space, vacuum, y):
        self.name = name
        self.space = space
        self.vacuum = vacuum
        self.y = y  # (V, V) -> (V,), series in "x"
        assert self.vacuum in self.space.basis
        assert self.y.domain == (self.space, self.space)
        assert self.y.codomain == (self.space,)

    def vacuum_vec(self):
        return SeriesVector.basis((self.space,), (self.vacuum,))

    def vertex(self, u, v):
        """Y(u, x) v for basis labels u, v."""
        return self.y.column((u, v))


class NvaModule:
    """A module W over a nonlocal vertex algebra."""

    def __init__(self, name, algebra, space, yw):
        self.name = name
        self.algebra = algebra
        self.space = space
        self.yw = yw  # (V, W) -> (W,), series in "x"
        assert self.yw.domain == (self.algebra.space, self.space)
        assert self.yw.codomain == (self.space,)


def adjoint_module(nva):
    return NvaModule(f"{nva.name}.adjoint", nva, nva.space, nva.y)


# ---------------------------------------------------------------------------
# vacuum axioms


def check_vacuum(nva):
    rep = CheckReport(f"{nva.name}: vacuum axioms")
    one = nva.vacuum
    for v in nva.space.basis:
        rep.compare(f"Y(1,x){v} == {v}", nva.vertex(one, v),
                    SeriesVector.basis((nva.space,), (v,)))
    for v in nva.space.basis:
        regular_limit(rep, f"Y({v},x)1 regular with limit {v}",
                      nva.vertex(v, one),
                      SeriesVector.basis((nva.space,), (v,)),
                      ("negative powers present", "wrong limit"))
    return rep


def regular_limit(rep, name, vec, want, fails):
    """Add to rep the item name: vec has no negative power of x and its
    constant term equals want, with the verdict of that comparison; a fail
    detailed fails[0] at a negative power and fails[1] at another limit."""
    poly = all(s.is_polynomial() for s in vec.entries.values())
    res = poly and window_equal_vec(
        vec.transform(lambda s: s.extract("x", 0)), want)
    if res:
        rep.verdict(name, res)
    else:
        rep.add(name, Outcome.FAIL, fails[1] if poly else fails[0])


def window_equal_vec(a, b):
    """Certified equality of SeriesVectors: the worst verdict of
    series.window_equal over the keys of both sides, with the first unequal
    key (in sorted order) and its exponent as the witness.  An all-exact
    verdict is one shared EqResult."""
    ae, be = a.entries, b.entries
    worst = _EXACT
    # the keys in entry order while they compare equal
    try:
        for key in {**ae, **be}:
            res = window_equal(ae.get(key, _ZERO), be.get(key, _ZERO))
            if not res:
                break
            if res.kind is Eq.WINDOW:
                worst = res
        else:
            return worst
    except SeriesError:
        pass
    # a key compared unequal or raised: in sorted order the first such key
    # gives the witness, or raises, as it would had the keys been sorted
    for key in sorted(ae.keys() | be.keys()):
        res = window_equal(ae.get(key, _ZERO), be.get(key, _ZERO))
        if not res:
            return EqResult(Eq.UNEQUAL, (key, res.witness))


# ---------------------------------------------------------------------------
# weak associativity


def pole_order(vec, var):
    """Smallest k >= 0 with var^k * vec polynomial in var."""
    k = 0
    for s in vec.entries.values():
        if var in s.variables:
            i = s.variables.index(var)
            for ex in s.coeffs:
                if ex[i] < -k:
                    k = -ex[i]
    return k


def find_clearing_k(sides, kmax):
    """(k, verdict): the first k <= kmax at which (x1-x2)^k lhs and
    (x1-x2)^k rhs compare equal for every (lhs, rhs) pair in sides, with the
    worst verdict over the pairs; (None, None) when no such k exists.
    (x2-x1)^k differs only by the sign (-1)^k, which changes no verdict,
    so the search serves the identities stated with (x2-x1)^k as well."""
    step = Series.monomial("x1", 1) - Series.monomial("x2", 1)
    factor = Series.const(1)
    for k in range(kmax + 1):
        worst = _EXACT
        for lhs, rhs in sides:
            res = window_equal_vec(lhs.scale(factor), rhs.scale(factor))
            if not res:
                break
            if res.kind is Eq.WINDOW:
                worst = res
        else:
            return k, worst
        factor = factor * step
    return None, None


def clearing_k_items(rep, items, kmax):
    """Add to rep an item per (name, sides) of items, sides the (lhs, rhs)
    pairs of one identity: "{name} k=K" with the verdict of
    find_clearing_k, or "{name}" with no k found.  An identity without
    sides, 0 == 0 at every key, is exact at k=0 and joins a run."""
    dead = []
    for name, sides in items:
        if not sides:
            dead.append(f"{name} k=0")
            continue
        rep.run("", dead)
        dead = []
        k, res = find_clearing_k(sides, kmax)
        if k is None:
            rep.add(name, Outcome.NO_K_FOUND, f"no k <= {kmax}")
        else:
            rep.verdict(f"{name} k={k}", res)
    rep.run("", dead)


def check_weak_associativity(nva, kmax=DEFAULT_KMAX):
    """(x0+x2)^k Y(u,x0+x2) Y(v,x2) w == (x0+x2)^k Y(Y(u,x0)v,x2) w."""
    rep = CheckReport(f"{nva.name}: weak associativity")
    rep.extend(weak_associativity_items(
        nva.y, nva.y, (nva.space,) * 3, kmax, "assoc"))
    return rep


def weak_associativity_items(y, yw, spaces, kmax, prefix):
    """Shared engine for algebra and module weak associativity: y is the
    algebra's table on V, yw the table of its action on W.  Items are
    named "{prefix}(u,v,w) k=K"; k is the pole order of Y(u,x1)Y(v,x2)w
    in x1.

    Both sides are composed once over the tables' nonzero columns, as maps
    sending u⊗v⊗w to Y(u,x1)Y(v,x2)w and to Y(Y(u,x0)v,x2)w.  A triple at
    which neither map has a column is 0 == 0, exact at k=0."""
    rep = CheckReport("weak associativity")
    yx1, yx2, yx0 = yw.at("x1"), yw.at("x2"), y.at("x0")
    lhs_map = yx1.compose(yx2, (1,))
    rhs_map = yx2.compose(yx0, (0,))
    # the (place in the basis, w) of the triples at which a map has a
    # column, by their (u, v); a row of (u, v) with none is one run of
    # 0 == 0 items, and so is each stretch of such w in a row
    ws = spaces[2].basis
    index = {w: i for i, w in enumerate(ws)}
    live = {}
    for key in lhs_map.columns.keys() | rhs_map.columns.keys():
        live.setdefault(key[:2], []).append((index[key[2]], key[2]))
    zero = tuple(f"{w}) k=0" for w in ws)
    for (u, v) in basis_tuples(spaces[:2]):
        at = f"{prefix}({u},{v},"
        start = 0
        for i, w in sorted(live.get((u, v), ())):
            rep.run(at, zero[start:i])
            start = i + 1
            key = (u, v, w)
            lhs12 = lhs_map.column(key)
            k = pole_order(lhs12, "x1")
            if k > kmax:
                rep.add(f"{at}{w})", Outcome.NO_K_FOUND,
                        f"pole order exceeds kmax={kmax}")
                continue
            rhs = rhs_map.column(key)
            if k:
                xk = Series.monomial("x1", k)
                lhs12 = lhs12.scale(xk)
                rhs = rhs.scale(xk.substitute_sum("x1", "x0", "x2"))
            # at k=0 both sides are still lifted onto (x0, x2), as x1^0 and
            # (x0+x2)^0 would, so a witness exponent has two entries
            rep.compare(f"{at}{w}) k={k}", _on_x0_x2(lhs12, True),
                        _on_x0_x2(rhs, False))
        rep.run(at, zero[start:])
    return rep


def _on_x0_x2(vec, substitute):
    """vec on (x0, x2) in one pass, x1 -> x0 + x2 substituted first when
    substitute is set; an exact zero leaves, as in transform."""
    out = {}
    for key, s in vec.entries.items():
        t = s.substitute_sum("x1", "x0", "x2") if substitute else s
        if t.variables != ("x0", "x2"):
            t = t.align(("x0", "x2"), s.window)
        if t.coeffs or not t.exact:
            out[key] = t
    return _vector(vec.spaces, out)


# ---------------------------------------------------------------------------
# the canonical derivation D and its exponential


def compute_D(nva):
    """D(v) = d/dx Y(v,x)1 at x=0, as a SeriesMap (V,) -> (V,)."""
    sp = (nva.space,)
    cols = {}
    for v in nva.space.basis:
        creation = nva.vertex(v, nva.vacuum)
        cols[(v,)] = creation.transform(lambda s: s.extract("x", 1))
    return SeriesMap(sp, sp, cols)


def scalar_of(vec):
    """Constant value of a one-leg SeriesVector known to be x-free."""
    out = {}
    for key, s in vec.entries.items():
        assert not s.variables or all(not any(e) for e in s.coeffs)
        out[key] = s.coeff(() if not s.variables else (0,) * len(s.variables))
    return out


def exp_xD(nva):
    """e^{xD} as a SeriesMap (V,) -> (V,), summed up to the top of the
    window of the algebra's table, or up to x^dim V when it has none (past
    which D^k = 0 for a nilpotent D).  Exact when the sum has ended there;
    otherwise it is cut, marked inexact, and takes the table's window, or
    (0, dim V) when there is none."""
    import math

    sp = (nva.space,)
    D = compute_D(nva)
    window = nva.y.window()
    hi = len(nva.space) if window is None else window[1]
    cols = {}
    for v in nva.space.basis:
        acc = SeriesVector.zero(sp)
        term = SeriesVector.basis(sp, (v,))
        k = 0
        truncated = False
        while not term.is_zero():
            if k > hi:
                truncated = True
                break
            mono = Series.monomial("x", k, coeff=Q(1, math.factorial(k)))
            acc = acc + term.scale(mono)
            term = D.apply(term)
            k += 1
        if truncated:
            cut = window or (0, hi)
            acc = acc.transform(
                lambda s: Series(s.variables, s.coeffs, cut, False))
        cols[(v,)] = acc
    return SeriesMap(sp, sp, cols)


def check_D_bracket(nva):
    """[D, Y(v,x)] == Y(Dv,x) == d/dx Y(v,x) on every pair.

    The three sides are built once as maps on v⊗u and compared column by
    column."""
    rep = CheckReport(f"{nva.name}: D-bracket")
    D = compute_D(nva)
    pair = (nva.space, nva.space)
    # [D, Y(v,x)]u = D(Y(v,x)u) - Y(v,x)(Du)
    bracket = D.compose(nva.y) - nva.y.compose(D, (1,))
    ydv = nva.y.compose(D, (0,))
    deriv = nva.y.transform(lambda s: s.deriv("x"))
    rep.compare_maps(item for v, u in basis_tuples(pair) for item in (
        (f"[D,Y({v},x)]{u} == Y(D{v},x){u}", (v, u), bracket, ydv),
        (f"Y(D{v},x){u} == d/dx Y({v},x){u}", (v, u), ydv, deriv)))
    return rep


# ---------------------------------------------------------------------------
# module axioms


def check_module(mod, kmax=DEFAULT_KMAX):
    """Module axioms for W over V: Y_W(1,x) is the identity, and the weak
    associativity of the algebra itself holds with the action on W,

        (x0+x2)^k Y_W(u,x0+x2) Y_W(v,x2) w == (x0+x2)^k Y_W(Y(u,x0)v, x2) w,

    k the pole order of Y_W(u,x1) Y_W(v,x2) w in x1, checked by the engine
    that checks the algebra (items "module(u,v,w) k=K")."""
    nva = mod.algebra
    rep = CheckReport(f"{mod.name}: module axioms")
    for w in mod.space.basis:
        rep.compare(f"Y_W(1,x){w} == {w}", mod.yw.column((nva.vacuum, w)),
                    SeriesVector.basis((mod.space,), (w,)))
    rep.extend(weak_associativity_items(
        nva.y, mod.yw, (nva.space, nva.space, mod.space), kmax, "module"))
    return rep
