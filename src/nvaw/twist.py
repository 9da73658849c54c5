"""Twisting operators between two nonlocal vertex algebras.

A twisting operator for the ordered factor pair (first, second) is a map
R(x): second ⊗ first -> first ⊗ second with Laurent-series coefficients,
normalized on both vacua, satisfying the two hexagon compatibilities with
the vertex operators of the two factors.
"""

from .series import Series
from .linalg import SeriesMap, SeriesVector, basis_tuples, matrix_inverse
from .nva import CheckReport, window_equal_vec


class NotInvertibleError(ValueError):
    pass


class TwistOp:
    """Twisting operator for the ordered factor pair (first, second):
    R(x): second ⊗ first -> first ⊗ second.  The twisted tensor product
    built from it is first ⊗_R second."""

    def __init__(self, name, first, second, table, inverse=None):
        self.name = name
        self.first = first
        self.second = second
        self.table = table  # (S, F) -> (F, S), series in "x"
        self.inverse = inverse  # (F, S) -> (S, F), or None
        assert self.table.domain == (self.second.space, self.first.space)
        assert self.table.codomain == (self.first.space, self.second.space)


def flip_twist(first, second):
    """The trivial twisting operator v ⊗ u -> u ⊗ v for first ⊗ second."""
    dom = (second.space, first.space)
    cod = (first.space, second.space)
    cols = {
        (v, u): SeriesVector.basis(cod, (u, v)) for (v, u) in basis_tuples(dom)
    }
    table = SeriesMap(dom, cod, cols)
    inv_cols = {
        (u, v): SeriesVector.basis(dom, (v, u)) for (u, v) in basis_tuples(cod)
    }
    inverse = SeriesMap(cod, dom, inv_cols)
    return TwistOp(f"flip({first.name},{second.name})", first, second, table, inverse)


# ---------------------------------------------------------------------------
# axioms


def check_twisting_axioms(t):
    U, V = t.first, t.second
    rep = CheckReport(f"{t.name}: twisting-operator axioms")

    # vacuum normalization
    for v in V.space.basis:
        got = t.table.column((v, U.vacuum))
        want = SeriesVector.basis(t.table.codomain, (U.vacuum, v))
        rep.compare(f"R(x)({v}⊗1) == 1⊗{v}", got, want)
    for u in U.space.basis:
        got = t.table.column((V.vacuum, u))
        want = SeriesVector.basis(t.table.codomain, (u, V.vacuum))
        rep.compare(f"R(x)(1⊗{u}) == {u}⊗1", got, want)

    # Each hexagon side is one map, nested from the right: its column at a
    # basis tuple applies the factors to that tuple's basis vector in turn.
    us, vs = U.space, V.space
    r_x1 = t.table.at("x1")

    # hexagon against Y_U:  R(x1)(1⊗Y_U(x2)) == (Y_U(x2)⊗1) R23(x1) R12(x1+x2)
    yu_x2 = U.y.at("x2")
    spaces = (vs, us, us)
    lhs = r_x1.compose(yu_x2, (1,))
    rhs = (yu_x2.tensor(SeriesMap.identity((vs,))).compose(r_x1, (1, 2))
           .compose(t.table.at("x1", "x2"), (0, 1)))
    rep.compare_maps(((f"hexagon-right{key}", key)
                      for key in basis_tuples(spaces)), lhs, rhs)

    # hexagon against Y_V:  R(x1)(Y_V(x2)⊗1) == (1⊗Y_V(x2)) R12(x1-x2) R23(x1)
    yv_x2 = V.y.at("x2")
    spaces = (vs, vs, us)
    lhs = r_x1.compose(yv_x2, (0,))
    rhs = (SeriesMap.identity((us,)).tensor(yv_x2)
           .compose(t.table.at("x1", "-x2"), (0, 1)).compose(r_x1, (1, 2)))
    rep.compare_maps(((f"hexagon-left{key}", key)
                      for key in basis_tuples(spaces)), lhs, rhs)
    return rep


# ---------------------------------------------------------------------------
# inversion


def _degree_matrices(table):
    """Decompose R(x) = sum_d M_d x^d into dense matrices over basis tuples."""
    dom = basis_tuples(table.domain)
    cod = basis_tuples(table.codomain)
    cidx = {k: i for i, k in enumerate(cod)}
    mats = {}
    for j, key in enumerate(dom):
        col = table.column(key)
        for ckey, s in col.entries.items():
            i = cidx[ckey]
            for expt, c in s.coeffs.items():
                d = expt[0] if expt else 0
                mats.setdefault(d, [[0] * len(dom) for _ in cod])
                mats[d][i][j] = c
    return mats, dom, cod


def invert_twisting(t):
    """Compute R(x)^{-1} degree by degree as a power series in x.

    Requires the constant term M_0 to be invertible over Q.  The inverse is
    truncated at the top of the table's window, and exact when the
    recursion has ended inside it: N_e = -M_0^{-1} sum_{d=1..maxdeg} M_d
    N_{e-d} is zero for all later e once maxdeg consecutive N_e are zero,
    that is, when max(e: N_e != 0) + maxdeg <= top.  A table without a
    window is cut at top = n * maxdeg, n = dim U⊗V: a polynomial inverse
    adj(R)/det(R) has degree at most (n-1) * maxdeg.  The inverse takes
    the table's window; without one, an exact inverse has none either and
    a cut one takes (0, top).
    """
    mats, dom, cod = _degree_matrices(t.table)
    if any(d < 0 for d in mats):
        raise NotInvertibleError(
            f"{t.name}: negative powers of x; constant-term inversion "
            "does not apply")
    n = len(dom)
    # M_0 as rows of its nonzero entries; no constant term gives n empty rows
    inv0 = matrix_inverse([{j: c for j, c in enumerate(row) if c}
                           for row in mats.get(0, [[]] * n)])
    if inv0 is None:
        raise NotInvertibleError(f"{t.name}: constant term is singular")
    window = t.table.window()
    maxdeg = max(mats)
    hi = n * maxdeg if window is None else window[1]
    ns = {0: inv0}
    for e in range(1, hi + 1):
        acc = [[0] * n for _ in range(n)]
        any_term = False
        for d, md in mats.items():
            if d == 0 or d > e or (e - d) not in ns:
                continue
            ne_d = ns[e - d]
            any_term = True
            for i in range(n):
                for j in range(n):
                    acc[i][j] += sum(md[i][k] * ne_d[k][j] for k in range(n))
        if not any_term:
            continue
        ne = [[-sum(inv0[i][k] * acc[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
        if any(any(x != 0 for x in row) for row in ne):
            ns[e] = ne

    exact = max(ns) + maxdeg <= hi
    if window is None and not exact:
        window = (0, hi)
    cols = {}
    for j, key in enumerate(cod):
        entries = {}
        for i, ckey in enumerate(dom):
            coeffs = {}
            for e, ne in ns.items():
                if ne[i][j] != 0:
                    coeffs[(e,)] = ne[i][j]
            if coeffs:
                entries[ckey] = Series(("x",), coeffs, window, exact)
        cols[key] = SeriesVector(t.table.domain, entries)
    inverse = SeriesMap(t.table.codomain, t.table.domain, cols)

    # verify both compositions are the identity (up to the window)
    for comp, ident in (
        (inverse.compose(t.table), SeriesMap.identity(t.table.domain)),
        (t.table.compose(inverse), SeriesMap.identity(t.table.codomain)),
    ):
        for key in sorted(set(comp.columns) | set(ident.columns)):
            res = window_equal_vec(comp.column(key), ident.column(key))
            if not res:
                raise NotInvertibleError(
                    f"{t.name}: inverse verification failed at {key}: "
                    f"{res.witness}")
    return inverse


def with_inverse(t):
    if t.inverse is not None:
        return t
    return TwistOp(t.name, t.first, t.second, t.table, invert_twisting(t))


def reversed_twisting(t):
    """R^{-1}(-x) is a twisting operator for the swapped pair."""
    t = with_inverse(t)
    table = t.inverse.at("-x")
    inv = t.table.at("-x")
    return TwistOp(f"rev({t.name})", t.second, t.first, table, inv)
