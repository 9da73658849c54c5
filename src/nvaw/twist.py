"""Twisting operators between two nonlocal vertex algebras.

A twisting operator for the ordered factor pair (first, second) is a map
R(x): second ⊗ first -> first ⊗ second with Laurent-series coefficients,
normalized on both vacua, satisfying the two hexagon compatibilities with
the vertex operators of the two factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from .series import DEFAULT_RANGE, Series, Window
from .linalg import SeriesMap, SeriesVector, basis_tuples, matrix_inverse
from .nva import (
    DEFAULT_KMAX,
    CheckReport,
    Outcome,
    eq_outcome,
    window_equal_vec,
    witness,
)


class NotInvertibleError(ValueError):
    pass


@dataclass(frozen=True)
class TwistOp:
    """Twisting operator for the ordered factor pair (first, second):
    R(x): second ⊗ first -> first ⊗ second.  The twisted tensor product
    built from it is first ⊗_R second."""

    name: str
    first: "Nva"
    second: "Nva"
    table: SeriesMap  # (S, F) -> (F, S), series in "x"
    inverse: SeriesMap | None = None  # (F, S) -> (S, F)

    def __post_init__(self):
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


def check_twisting_axioms(t, rng=DEFAULT_RANGE, kmax=DEFAULT_KMAX):
    U, V = t.first, t.second
    rep = CheckReport(f"{t.name}: twisting-operator axioms")

    # vacuum normalization
    for v in V.space.basis:
        got = t.table.column((v, U.vacuum))
        want = SeriesVector.basis(t.table.codomain, (U.vacuum, v))
        res = window_equal_vec(got, want)
        rep.add(f"R(x)({v}⊗1) == 1⊗{v}", eq_outcome(res), witness(res))
    for u in U.space.basis:
        got = t.table.column((V.vacuum, u))
        want = SeriesVector.basis(t.table.codomain, (u, V.vacuum))
        res = window_equal_vec(got, want)
        rep.add(f"R(x)(1⊗{u}) == {u}⊗1", eq_outcome(res), witness(res))

    # hexagon against Y_U:  R(x1)(1⊗Y_U(x2)) == (Y_U(x2)⊗1) R23(x1) R12(x1+x2)
    r_x1 = t.table.at("x1")
    r_sum = r_x1.transform(lambda s: s.substitute_sum("x1", "x1", "x2", rng))
    yu_x2 = U.y.at("x2")
    spaces = (V.space, U.space, U.space)
    for key in basis_tuples(spaces):
        vec = SeriesVector.basis(spaces, key)
        lhs = r_x1.apply(yu_x2.apply(vec, (1, 2)), (0, 1))
        rhs = r_sum.apply(vec, (0, 1))
        rhs = r_x1.apply(rhs, (1, 2))
        rhs = yu_x2.apply(rhs, (0, 1))
        res = window_equal_vec(lhs, rhs)
        rep.add(f"hexagon-right{key}", eq_outcome(res), witness(res))

    # hexagon against Y_V:  R(x1)(Y_V(x2)⊗1) == (1⊗Y_V(x2)) R12(x1-x2) R23(x1)
    r_diff = r_x1.transform(
        lambda s: s.substitute_sum("x1", "x1", "x2", rng, 1, -1))
    yv_x2 = V.y.at("x2")
    spaces = (V.space, V.space, U.space)
    for key in basis_tuples(spaces):
        vec = SeriesVector.basis(spaces, key)
        lhs = r_x1.apply(yv_x2.apply(vec, (0, 1)), (0, 1))
        rhs = r_x1.apply(vec, (1, 2))
        rhs = r_diff.apply(rhs, (0, 1))
        rhs = yv_x2.apply(rhs, (1, 2))
        res = window_equal_vec(lhs, rhs)
        rep.add(f"hexagon-left{key}", eq_outcome(res), witness(res))
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


def invert_twisting(t, rng=DEFAULT_RANGE):
    """Compute R(x)^{-1} degree by degree as a power series in x.

    Requires the constant term M_0 to be invertible over Q; the inverse is
    exact when R is x-independent, otherwise truncated at the window top.
    """
    mats, dom, cod = _degree_matrices(t.table)
    if any(d < 0 for d in mats):
        raise NotInvertibleError(
            f"{t.name}: negative powers of x; constant-term inversion "
            "does not apply")
    n = len(dom)
    zero = [[Q(0)] * n for _ in range(n)]
    m0 = mats.get(0, zero)
    inv0 = matrix_inverse(m0)
    if inv0 is None:
        raise NotInvertibleError(f"{t.name}: constant term is singular")
    hi = rng[1]
    maxdeg = max(mats)
    ns = {0: inv0}
    for e in range(1, hi + 1):
        acc = [[Q(0)] * n for _ in range(n)]
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

    exact = maxdeg == 0
    window = Window.uniform(("x",), rng)
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


def with_inverse(t, rng=DEFAULT_RANGE):
    if t.inverse is not None:
        return t
    return TwistOp(t.name, t.first, t.second, t.table, invert_twisting(t, rng))


def reversed_twisting(t, rng=DEFAULT_RANGE):
    """R^{-1}(-x) is a twisting operator for the swapped pair."""
    t = with_inverse(t, rng)
    table = t.inverse.transform(lambda s: s.negate_var("x"))
    inv = t.table.transform(lambda s: s.negate_var("x"))
    return TwistOp(f"rev({t.name})", t.second, t.first, table, inv)
