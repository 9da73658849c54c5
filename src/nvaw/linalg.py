"""Finite-dimensional spaces, series-valued vectors and maps, exact solving.

A SeriesMap sends each basis tuple of its domain spaces to a SeriesVector
over its codomain spaces; entries are Series over Q.  Maps compose on
selected tensor legs, which is how each side of a multi-variable identity
is built as one map.
"""

from fractions import Fraction as Q
from functools import reduce

from .series import (
    EmptyWindow, Series, _add_terms, _integral, _made, _meet, _placed)

# the entry of every missing key: no Series is changed once built
_ZERO = Series.zero()


class Space:
    """A named basis.  Spaces built apart (a parsed file, a registry table)
    are equal when their names and basis orders are."""

    def __init__(self, name, basis):
        self.name = name
        self.basis = basis
        assert len(set(self.basis)) == len(self.basis), f"duplicate labels in {self.name}"

    def __eq__(self, other):
        if other.__class__ is not Space:
            return NotImplemented
        return self.name == other.name and self.basis == other.basis

    def __hash__(self):
        return hash((self.name, self.basis))

    def __repr__(self):
        return f"Space(name={self.name!r}, basis={self.basis!r})"

    def __len__(self):
        return len(self.basis)


def basis_tuples(spaces):
    """All basis-label tuples of a tensor product of spaces, in order."""
    out = [()]
    for sp in spaces:
        out = [t + (b,) for t in out for b in sp.basis]
    return out


def _span(legs, n):
    """(first, last + 1) of contiguous legs, all n legs by default."""
    legs = tuple(range(n) if legs is None else legs)
    assert legs == tuple(range(legs[0], legs[-1] + 1)), f"legs not contiguous: {legs}"
    return legs[0], legs[-1] + 1


class SeriesVector:
    """Element of (tensor product of spaces) with Series coefficients."""

    __slots__ = ("spaces", "entries")

    def __init__(self, spaces, entries):
        self.spaces = tuple(spaces)
        assert all(len(key) == len(self.spaces) for key in entries)
        # all but the exact zeros: a clipped zero says it lost terms
        self.entries = {tuple(key): s for key, s in entries.items()
                        if s.coeffs or not s.exact}

    @staticmethod
    def zero(spaces):
        return SeriesVector(spaces, {})

    @staticmethod
    def basis(spaces, labels):
        return SeriesVector(spaces, {tuple(labels): Series.const(1)})

    def get(self, key):
        return self.entries.get(tuple(key), _ZERO)

    def is_zero(self):
        return not self.entries

    def exact(self):
        return all(s.exact for s in self.entries.values())

    def __add__(self, other):
        assert self.spaces == other.spaces, (self.spaces, other.spaces)
        out = dict(self.entries)
        for key, s in other.entries.items():
            out[key] = out[key] + s if key in out else s
        return _vector(self.spaces, {k: s for k, s in out.items()
                                     if s.coeffs or not s.exact})

    def __neg__(self):
        return _vector(self.spaces, {k: -s for k, s in self.entries.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Every entry times c, a number or a Series."""
        return self.transform(lambda s: s * c)

    def transform(self, fn):
        """Apply fn to every Series entry (substitutions, var renames...),
        in one pass; the vector itself when fn returns every entry itself."""
        out, same = {}, True
        for k, s in self.entries.items():
            t = fn(s)
            same = same and t is s
            if t.coeffs or not t.exact:
                out[k] = t
        return self if same else _vector(self.spaces, out)

    def tensor(self, other):
        """self ⊗ other, its entries listed with other's key outermost: the
        order in which applying other's map and then self's map on the
        legs before it would list them.  Each product is kept: Laurent
        polynomials have no zero divisors, and one clipped to 0 is inexact."""
        out = {}
        for k2, s2 in other.entries.items():
            for k1, s1 in self.entries.items():
                out[k1 + k2] = s1 * s2
        return _vector(self.spaces + other.spaces, out)

    def __repr__(self):
        from .series import format_series

        names = "⊗".join(sp.name for sp in self.spaces) or "Q"
        body = "; ".join(
            f"{k}: {format_series(s)}" for k, s in sorted(self.entries.items())
        )
        return f"<{names} | {body or '0'}>"


def _vector(spaces, entries):
    """The SeriesVector of entries already kept, keyed by tuples over the
    spaces, unchecked."""
    vec = object.__new__(SeriesVector)
    vec.spaces = spaces
    vec.entries = entries
    return vec


class SeriesMap:
    """Linear map (tensor of domain spaces) -> (tensor of codomain spaces)
    with Series-valued matrix entries."""

    __slots__ = ("domain", "codomain", "columns")

    def __init__(self, domain, codomain, columns):
        self.domain = tuple(domain)
        self.codomain = tuple(codomain)
        self.columns = {}
        for key, vec in columns.items():
            key = tuple(key)
            assert len(key) == len(self.domain)
            assert vec.spaces == self.codomain, (vec.spaces, self.codomain)
            if not vec.is_zero():
                self.columns[key] = vec

    @staticmethod
    def relabel(domain, codomain, image):
        """The map sending each basis tuple t of the domain to the basis
        vector at image(t) of the codomain."""
        return SeriesMap(domain, codomain, {
            t: SeriesVector.basis(codomain, image(t))
            for t in basis_tuples(domain)})

    @staticmethod
    def identity(spaces):
        return SeriesMap.relabel(spaces, spaces, lambda t: t)

    @staticmethod
    def flip(a, b):
        """a ⊗ b -> b ⊗ a."""
        return SeriesMap.relabel((a, b), (b, a), lambda t: t[::-1])

    def column(self, key):
        col = self.columns.get(tuple(key))
        return _vector(self.codomain, {}) if col is None else col

    def transform(self, fn):
        """fn on every entry; the map itself when fn returns each entry."""
        cols, same = {}, True
        for k, v in self.columns.items():
            t = v.transform(fn)
            same = same and t is v
            if t.entries:
                cols[k] = t
        return self if same else _map(self.domain, self.codomain, cols)

    def window(self):
        """The meet of the windows of the entries: None when no entry has
        one, as for an x-free table."""
        return reduce(_meet, (s.window for v in self.columns.values()
                              for s in v.entries.values()), None)

    def at(self, first, second=None):
        """The map with its series variable x changed: at("x1") renames it,
        at("-x") negates it, and at("x1", "-x2") substitutes x -> x1 - x2,
        expanded in nonnegative powers of x2.  Each name may carry a sign;
        the expansion is clipped at the window of each entry."""
        if second is not None:
            return self.transform(lambda s: s.substitute_sum("x", first, second))
        mapping = {"x": first}
        return self.transform(lambda s: s.rename(mapping))

    def __add__(self, other):
        assert self.domain == other.domain and self.codomain == other.codomain
        out = dict(self.columns)
        for k, v in other.columns.items():
            out[k] = out[k] + v if k in out else v
        return _map(self.domain, self.codomain,
                    {k: v for k, v in out.items() if v.entries})

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return self.transform(lambda s: s * c)

    def apply(self, vec, legs=None):
        """Apply to the given contiguous legs of vec (all legs by default).

        The map's domain must match the selected legs; its codomain splices
        in at the first selected position.
        """
        lo, hi = _span(legs, len(vec.spaces))
        assert vec.spaces[lo:hi] == self.domain, (vec.spaces[lo:hi], self.domain)
        out_spaces = vec.spaces[:lo] + self.codomain + vec.spaces[hi:]
        return _vector(out_spaces, _summed(self.columns, vec.entries.items(),
                                           lo, hi))

    def compose(self, inner, legs=None):
        """self ∘ inner, inner acting on the given contiguous legs of self's
        domain (all by default) and the identity on the others.  That
        extension is never built: a column is summed straight from an inner
        column's entries, under each labels of the other legs where self
        reads one of them.

        A side nested from the right, a.compose(b, legs).compose(c, legs'),
        repeats at each key the apply chain a(b(c(key))) on those legs,
        column by column: the same products, each taken as c·(b·a) where
        the chain takes (c·b)·a.  Exact arithmetic makes the two equal;
        only a product clipped at a window could part them."""
        lo, hi = _span(legs, len(self.domain))
        assert inner.codomain == self.domain[lo:hi], (inner.codomain, self.domain)
        # self's columns by the labels around the inner legs, then on them
        read = {}
        for k, col in self.columns.items():
            read.setdefault((k[:lo], k[hi:]), {})[k[lo:hi]] = col
        # the places of the inner columns that hold each key
        items = list(inner.columns.items())
        holding = {}
        for i, (_, v) in enumerate(items):
            for k in v.entries:
                holding.setdefault(k, []).append(i)
        posts, cols = basis_tuples(self.domain[hi:]), {}
        for pre in basis_tuples(self.domain[:lo]):
            around = [(post, read[pre, post]) for post in posts
                      if (pre, post) in read]
            # an inner column is summed only under the labels around it
            # where self reads one of its keys, in (column, post) order
            for i, j in sorted({(i, j) for j, (_, at) in enumerate(around)
                                for k in at for i in holding.get(k, ())}):
                (key, v), (post, at) = items[i], around[j]
                col = _summed(at, v.entries.items(), 0, hi - lo)
                if col:
                    cols[pre + key + post] = _vector(self.codomain, col)
        return _map(self.domain[:lo] + inner.domain + self.domain[hi:],
                    self.codomain, cols)

    def tensor(self, other):
        cols = {}  # of nonzero columns: no product of entries is an exact 0
        for k1, v1 in self.columns.items():
            for k2, v2 in other.columns.items():
                cols[k1 + k2] = v1.tensor(v2)
        return _map(self.domain + other.domain, self.codomain + other.codomain,
                    cols)

    def __repr__(self):
        dom = "⊗".join(sp.name for sp in self.domain) or "Q"
        cod = "⊗".join(sp.name for sp in self.codomain) or "Q"
        return f"SeriesMap({dom} -> {cod}, {len(self.columns)} columns)"


def _summed(columns, entries, lo, hi):
    """The entries of the sum over (key, s) in entries of s times the column
    at key[lo:hi], its keys put on those legs: apply's, and compose's per
    column.  Each is summed as (variables, coeffs, window, exact) into a
    coefficient dict of its own, a placed product's or one that * or +
    built, in place while its terms share variables and window."""
    out = {}
    for key, s in entries:
        col = columns.get(key[lo:hi])
        if col is None:
            continue
        pre, post = key[:lo], key[hi:]
        for ckey, cs in col.entries.items():
            k = pre + ckey + post
            p = _placed(s, cs)
            if p is None:
                q = s * cs
                p = (q.variables, q.coeffs, q.window, q.exact)
            t = out.get(k)
            if t is None:
                t = p
            elif t[0] == p[0] and t[2] == p[2]:
                _add_terms(t[1], p[1])
                t = (t[0], t[1], t[2], t[3] and p[3])
            else:
                q = _made(*t) + _made(*p)
                t = (q.variables, q.coeffs, q.window, q.exact)
            # a sum that cancels exactly leaves the vector, as it would
            # in SeriesVector addition
            if t[1] or not t[3]:
                out[k] = t
            else:
                out.pop(k, None)
    return {k: _made(*t) for k, t in out.items()}


def _map(domain, codomain, columns):
    """The SeriesMap of nonzero columns over the codomain, unchecked."""
    mp = object.__new__(SeriesMap)
    mp.domain = domain
    mp.codomain = codomain
    mp.columns = columns
    return mp


# ---------------------------------------------------------------------------
# exact linear solving over Q


# The three outcomes of solve_linear compare by value and never equal an
# outcome of another kind.


class UniqueSolution:
    def __init__(self, assignment):
        self.assignment = assignment

    def __eq__(self, other):
        return type(other) is UniqueSolution and self.assignment == other.assignment


class Underdetermined:
    def __init__(self, rank, free, particular):
        self.rank = rank
        self.free = free
        self.particular = particular

    def __eq__(self, other):
        return type(other) is Underdetermined and (
            (self.rank, self.free, self.particular)
            == (other.rank, other.free, other.particular))


class Inconsistent:
    """The first equation, in input order, that contradicts the equations
    before it; witness is its (key, exponent) location."""

    def __init__(self, witness):
        self.witness = witness

    def __eq__(self, other):
        return type(other) is Inconsistent and self.witness == other.witness


def _subtract(target, f, row, skip):
    """target -= f * row in place on every column but skip (which the
    caller clears), keeping only nonzero entries, each in the normal form
    of Series coefficients: an int when integral."""
    for j, v in row.items():
        if j != skip:
            x = target.get(j, 0) - f * v
            if not x:
                del target[j]
            elif x.__class__ is Q and x.denominator == 1:
                target[j] = x.numerator
            else:
                target[j] = x


def _row_reduce(rows, ncols):
    """Sparse Gauss-Jordan elimination over Q of rows given as dicts
    column -> nonzero Q; columns >= ncols are carried along (right-hand
    sides) but never pivot.

    Each row in turn is reduced against the pivot rows already held; its
    lowest remaining column below ncols becomes its pivot, and the held rows
    are cleared in that column, so they stay fully reduced.  Returns
    (pivots, rest): pivots maps each pivot column to its row (1 at the
    pivot, 0 at every other pivot column, leading entry at the pivot), and
    rest lists (index, leftover) for every input row that reduced to zero
    below ncols, the leftover holding its carried columns.

    The work follows the nonzeros: a new pivot is cleared only from the held
    rows that may hold its column.  `holders` maps each non-pivot column to
    the pivots whose rows got an entry there, when the row was stored or
    when a subtraction reached that column; an entry may cancel later, so
    membership is tested again before subtracting.  A row whose leading
    entry is already 1 is stored as it is, and one led by -1 is negated.
    Input rows in the normal form of Series coefficients (an int when
    integral) give every entry in it.

    The result is the dense column-by-column Gauss-Jordan's.  A held row
    keeps its leading entry at its pivot q: a new pivot p is cleared from
    it only when p > q, by a row with no entry left of p.  So the held rows
    are in reduced row echelon form, which is unique for their row space,
    and a row set aside with an empty leftover lies in that space.  The
    pivot columns, and the pivot rows below ncols, therefore depend only on
    the span of the input rows, not on their order or on how they were
    reduced; so do the carried columns when every leftover is empty.
    """
    pivots = {}
    holders = {}
    rest = []
    for i, row in enumerate(rows):
        row = dict(row)
        for c in [c for c in row if c in pivots]:
            _subtract(row, row.pop(c), pivots[c], c)
        lead = None
        for c in row:
            if c < ncols and (lead is None or c < lead):
                lead = c
        if lead is None:
            rest.append((i, row))
            continue
        head = row[lead]
        if head == -1:
            row = {j: -v for j, v in row.items()}
        elif head != 1:
            inv = Q(head.denominator, head.numerator)
            row = _integral({j: v * inv for j, v in row.items()})
        reach = [j for j in row if j < ncols and j != lead]
        for p in holders.pop(lead, ()):
            held = pivots[p]
            if lead in held:
                _subtract(held, held.pop(lead), row, lead)
                for j in reach:
                    holders.setdefault(j, set()).add(p)
        for j in reach:
            holders.setdefault(j, set()).add(lead)
        pivots[lead] = row
    return pivots, rest


def _equations(blocks, col, m):
    """(rows, tags, spoiled) of blocks (targets, images): a row per (basis
    key, exponent), unknown u in column col[u] < m and the g-th target in
    column m + g, and tags its (key, exponent).  Every side of a key is read
    lifted onto the union of the sides' variables and clipped to the meet
    of their windows (as it is when they share both); at a key no image
    holds, each target alone.  With several targets the images' reading
    holds; where targets would change it, the build stops and spoiled holds
    their g.  Rows enter in order of first appearance, targets first, and a
    repeated row enters once: rows compare by value, an int hashing cheaply.
    """
    kept = {}
    for targets, images in blocks:
        at = {}
        carried = [(m + g, t) for g, t in enumerate(targets)]
        for j, vec in carried + [(col[u], vec) for u, vec in images.items()]:
            for key, s in vec.entries.items():
                at.setdefault(key, []).append((j, s))
        for key, sides in at.items():
            for part in [sides] if sides[-1][0] < m else [[t] for t in sides]:
                variables, window = part[0][1].variables, part[0][1].window
                if any(s.variables != variables or s.window != window
                       for _, s in part):
                    # the images' reading, with the target's if it is alone
                    held = [s for j, s in part if j < m or len(targets) == 1]
                    variables = tuple(sorted({v for s in held for v in s.variables}))
                    window = reduce(_meet, (s.window for s in held))
                    if window is not None and window[0] > window[1]:
                        raise EmptyWindow(f"empty window [{window[0]},{window[1]}]")
                    spoiled = {j - m for j, s in part if j >= m and (
                        _meet(window, s.window) != window
                        or not set(s.variables) <= set(variables))}
                    if spoiled:
                        return None, None, spoiled
                eqs = {}
                for j, s in part:
                    for expt, c in s._lifted(variables, window)[0].items():
                        eqs.setdefault(expt, {})[j] = c
                for expt, row in eqs.items():
                    kept.setdefault(frozenset(row.items()), (row, (key, expt)))
    return [r for r, _ in kept.values()], [t for _, t in kept.values()], set()


def solve_linear(blocks, unknowns):
    """Solve for the unknowns from blocks (target, images): SeriesVectors
    with target == sum(u * images[u]), read as _equations reads them.
    Blocks that share an unknown form a group.  Groups whose blocks hold
    the same image objects at the same positions of their unknowns share a
    matrix, eliminated once with a column for each group's targets unless
    one changes how a key is read; the reduced row echelon form is unique,
    so each group gets the values of its own elimination.  The witness of
    an inconsistent system, the first equation in input order that
    contradicts those before it, comes from eliminating again the blocks
    of the groups a leftover row holds.
    """
    blocks, unknowns = list(blocks), list(unknowns)
    n = len(unknowns)
    col = {u: i for i, u in enumerate(unknowns)}
    up = list(range(n))  # union-find over the columns

    def root(j):
        while up[j] != j:
            up[j] = j = up[up[j]]
        return j

    for _, images in blocks:
        js = [root(j) for j in {up[col[u]] for u in images}]
        for j in js:
            up[j] = js[0]
    groups = {}  # a block with no unknown is a group of its own
    for i, (_, images) in enumerate(blocks):
        groups.setdefault(root(col[next(iter(images))]) if images else -1 - i,
                          []).append(i)
    shapes = {}  # by the image objects at the positions of their unknowns
    for group in groups.values():
        cols = sorted({col[u] for i in group for u in blocks[i][1]})
        at = {unknowns[j]: p for p, j in enumerate(cols)}.get
        shapes.setdefault(tuple(
            (tuple(map(at, blocks[i][1])), tuple(map(id, blocks[i][1].values())))
            for i in group), []).append((group, cols))

    values, bad = {}, []
    todo = list(shapes.values())
    for batch in todo:
        first, cols = batch[0]
        m = len(cols)
        rows, _, spoiled = _equations(
            [([blocks[group[p]][0] for group, _ in batch], blocks[i][1])
             for p, i in enumerate(first)],
            {unknowns[j]: p for p, j in enumerate(cols)}, m)
        if spoiled:  # each such group is solved on its own
            kept = [b for g, b in enumerate(batch) if g not in spoiled]
            todo += [[batch[g]] for g in sorted(spoiled)] + [kept] * bool(kept)
            continue
        pivots, rest = _row_reduce(rows, m)
        failed = {j - m for _, leftover in rest for j in leftover}
        for g, (group, cols) in enumerate(batch):
            if g in failed:
                bad += group
            else:
                values.update((cols[c], row.get(m + g, 0))
                              for c, row in pivots.items())
    if bad:
        rows, tags, _ = _equations(
            [([blocks[i][0]], blocks[i][1]) for i in sorted(bad)], col, n)
        _, rest = _row_reduce(rows, n)
        return Inconsistent(next(tags[i] for i, leftover in rest if leftover))

    assignment = {unknowns[j]: values[j] for j in sorted(values)}
    if len(values) == n:
        return UniqueSolution(assignment)
    free = [u for j, u in enumerate(unknowns) if j not in values]
    particular = {u: assignment.get(u, 0) for u in unknowns}
    return Underdetermined(len(values), free, particular)


def matrix_rank(rows, ncols):
    """Rank over Q of a matrix given by its rows, dicts column -> nonzero
    value for the columns below ncols."""
    return len(_row_reduce(rows, ncols)[0])


def matrix_inverse(rows):
    """Inverse of the n×n matrix with the given n rows, dicts column ->
    nonzero value, as a dense list of lists over Q; None if singular."""
    n = len(rows)
    pivots, _ = _row_reduce([{**row, n + i: 1} for i, row in enumerate(rows)], n)
    if len(pivots) < n:
        return None
    return [[pivots[i].get(n + j, 0) for j in range(n)] for i in range(n)]
