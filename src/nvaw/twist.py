"""Twisting operators between two nonlocal vertex algebras.

A twisting operator for the ordered factor pair (first, second) is a map
R(x): second ⊗ first -> first ⊗ second with Laurent-series coefficients,
normalized on both vacua, satisfying the two hexagon compatibilities with
the vertex operators of the two factors.
"""

from .series import Series
from .linalg import SeriesMap, SeriesVector, basis_tuples, matrix_inverse
from .nva import CheckReport


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
    return TwistOp(f"flip({first.name},{second.name})", first, second,
                   SeriesMap.flip(second.space, first.space),
                   SeriesMap.flip(first.space, second.space))


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
    rep.compare_maps((f"hexagon-right{key}", key, lhs, rhs)
                     for key in basis_tuples(spaces))

    # hexagon against Y_V:  R(x1)(Y_V(x2)⊗1) == (1⊗Y_V(x2)) R12(x1-x2) R23(x1)
    yv_x2 = V.y.at("x2")
    spaces = (vs, vs, us)
    lhs = r_x1.compose(yv_x2, (0,))
    rhs = (SeriesMap.identity((us,)).tensor(yv_x2)
           .compose(t.table.at("x1", "-x2"), (0, 1)).compose(r_x1, (1, 2)))
    rep.compare_maps((f"hexagon-left{key}", key, lhs, rhs)
                     for key in basis_tuples(spaces))
    return rep


# ---------------------------------------------------------------------------
# inversion


def invert_twisting(t):
    """R(x)^{-1} as a power series in x, by Newton steps from the inverse
    of the constant term M_0, which must be invertible over Q.

    A step N <- N + N(1 - R N) doubles the degree up to which N is right,
    so top.bit_length() steps reach top: the top of the table's window,
    or top = n * maxdeg, n = dim U⊗V, for a table without one (a
    polynomial inverse adj(R)/det(R) has degree at most (n-1) * maxdeg).
    N starts in the table's window, or in (0, top), so every step is
    clipped there.  Both composites N R and R N, N taken as exact data,
    are then compared with the identity: a failure raises
    NotInvertibleError, and the inverse is exact when every comparison is.
    It takes the table's window; without one, an exact inverse has none
    either and a cut one takes (0, top).
    """
    table = t.table
    dom, cod = basis_tuples(table.domain), basis_tuples(table.codomain)
    exponents = [ex[0] if ex else 0 for col in table.columns.values()
                 for s in col.entries.values() for ex in s.coeffs]
    if any(d < 0 for d in exponents):
        raise NotInvertibleError(
            f"{t.name}: negative powers of x; constant-term inversion "
            "does not apply")
    # M_0 as rows of its nonzero entries, a row per codomain tuple
    at = {key: i for i, key in enumerate(cod)}
    rows = [{} for _ in cod]
    for j, key in enumerate(dom):
        for ckey, s in table.column(key).entries.items():
            c = s.coeff((0,) * len(s.variables))
            if c:
                rows[at[ckey]][j] = c
    inv0 = matrix_inverse(rows)
    if inv0 is None:
        raise NotInvertibleError(f"{t.name}: constant term is singular")
    window = table.window()
    top = len(dom) * max(exponents) if window is None else window[1]
    work = window or (0, top)
    inverse = SeriesMap(table.codomain, table.domain, {
        ckey: SeriesVector(table.domain, {
            key: Series(("x",), {(0,): inv0[i][j]}, work)
            for i, key in enumerate(dom)})
        for j, ckey in enumerate(cod)})
    one = SeriesMap.identity(table.codomain)
    for _ in range(top.bit_length()):
        inverse = inverse + inverse.compose(one - table.compose(inverse))

    inverse = inverse.transform(lambda s: Series(("x",), s.coeffs, work))
    rep = CheckReport(f"{t.name}: inverse")
    for side, lhs, spaces in (
            ("R^-1 R", inverse.compose(table), table.domain),
            ("R R^-1", table.compose(inverse), table.codomain)):
        ident = SeriesMap.identity(spaces)
        rep.compare_maps((f"{side}{key}", key, lhs, ident)
                         for key in basis_tuples(spaces))
    if not rep.ok:
        item = rep.failures()[0]
        raise NotInvertibleError(
            f"{t.name}: inverse verification failed at {item.name}: "
            f"{item.detail}")
    exact = rep.exact
    return inverse.transform(lambda s: Series(
        ("x",), s.coeffs, window if exact else work, exact))


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
