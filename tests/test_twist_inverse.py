"""R(x)^-1 by Newton steps against the dense degree-by-degree recursion it
replaced, kept here as the reference.

Both give the same entries: variables, window, and the value and type of
each coefficient.  They may differ in exactness only where the reference's
structural rule was wrong one way or the other: an inverse newly exact must
be a polynomial that sympy confirms, both ways round, against an exact R,
and an inverse newly inexact must belong to an R with an inexact entry.
"""

import random

import pytest
import sympy

from nvaw.linalg import SeriesMap, SeriesVector, basis_tuples, matrix_inverse
from nvaw.nva import window_equal_vec
from nvaw.registry import builtin_algebras, builtin_twists, make_z2
from nvaw.series import DEFAULT_RANGE, Q, Series
from nvaw.twist import NotInvertibleError, TwistOp, flip_twist, invert_twisting

from test_products import x_dependent_twist


# ---------------------------------------------------------------------------
# the reference: dense matrices per degree and a nested-loop recursion


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


def reference_inverse(t):
    """R(x)^-1 degree by degree: N_e = -M_0^{-1} sum_{d>=1} M_d N_{e-d} up
    to the top of the window (n * maxdeg without one), exact when
    max(e: N_e != 0) + maxdeg <= top."""
    mats, dom, cod = _degree_matrices(t.table)
    if any(d < 0 for d in mats):
        raise NotInvertibleError(f"{t.name}: negative powers of x")
    n = len(dom)
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


# ---------------------------------------------------------------------------
# comparison


def fields(inverse):
    """Variables, window, and (type, value) per exponent, of every entry."""
    return {(ckey, key): (s.variables, s.window,
                          {ex: (type(c), c) for ex, c in s.coeffs.items()})
            for ckey, col in inverse.columns.items()
            for key, s in col.entries.items()}


def exactness(inverse):
    flags = {s.exact for col in inverse.columns.values()
             for s in col.entries.values()}
    assert len(flags) == 1, flags
    return flags.pop()


def inverse_or_none(invert, t):
    try:
        return invert(t)
    except NotInvertibleError:
        return None


def _matrix(table_map, rows, cols):
    """The sympy matrix of a map with x-polynomial entries, row per codomain
    tuple and column per domain tuple."""
    x = sympy.Symbol("x")

    def entry(s):
        return sum((sympy.Rational(Q(c).numerator, Q(c).denominator)
                    * x ** (ex[0] if ex else 0)
                    for ex, c in s.coeffs.items()), sympy.Integer(0))

    return sympy.Matrix([[entry(table_map.column(key).get(ckey))
                          for key in cols] for ckey in rows])


def sympy_confirms_a_polynomial_inverse(t, inverse):
    """R N == N R == 1 as polynomial matrices: N is R's inverse, a
    polynomial inside its window, so of degree <= top."""
    table = t.table
    dom, cod = basis_tuples(table.domain), basis_tuples(table.codomain)
    r = _matrix(table, cod, dom)
    n = _matrix(inverse, dom, cod)
    one = sympy.eye(len(dom))
    return (r * n).expand() == one and (n * r).expand() == one


def has_inexact_entry(t):
    return not all(s.exact for col in t.table.columns.values()
                   for s in col.entries.values())


def compare_with_reference(t):
    """'raises', 'equal', 'newly exact' or 'newly inexact', after checking
    that the two inverses agree as the module docstring says, and that
    the new one is inexact where R is."""
    want = inverse_or_none(reference_inverse, t)
    got = inverse_or_none(invert_twisting, t)
    assert (want is None) == (got is None), t.name
    if want is None:
        return "raises"
    assert fields(got) == fields(want), t.name
    was, now = exactness(want), exactness(got)
    # no inverse of a table that lost a term is exact
    assert not (now and has_inexact_entry(t)), t.name
    if was == now:
        return "equal"
    if now:
        assert sympy_confirms_a_polynomial_inverse(t, got), t.name
        return "newly exact"
    assert has_inexact_entry(t), t.name
    return "newly inexact"


# ---------------------------------------------------------------------------
# cases


@pytest.mark.parametrize("rng", [DEFAULT_RANGE, (0, 0), (-1, 1), (-2, 2)])
def test_registry_twists_invert_as_the_reference_does(rng):
    for name, t in sorted(builtin_twists(rng).items()):
        assert compare_with_reference(t) == "equal", name


def test_x_dependent_twist_inverts_as_the_reference_does():
    assert compare_with_reference(x_dependent_twist()) == "equal"


def perturbed_flip(alg, window, r):
    """flip(alg, alg) plus one to three random monomials c·x^e, most of
    degree >= 1, some past the window's top, on random entries."""
    flip = flip_twist(alg, alg).table
    cod = basis_tuples(flip.codomain)
    cols = {key: dict(flip.column(key).entries)
            for key in basis_tuples(flip.domain)}
    for _ in range(r.randint(1, 3)):
        entries = cols[r.choice(sorted(cols))]
        ckey = r.choice(cod)
        e = r.choice((0, 1, 1, 1, 2, 2, 3))
        c = r.choice((1, -1, 2, Q(1, 2), Q(-3, 2)))
        term = Series(("x",), {(e,): c}, window)
        entries[ckey] = entries[ckey] + term if ckey in entries else term
    return TwistOp(f"perturbed flip({alg.name})", alg, alg, SeriesMap(
        flip.domain, flip.codomain,
        {key: SeriesVector(flip.codomain, e) for key, e in cols.items()}))


def test_perturbed_flips_invert_as_the_reference_does():
    r = random.Random(23)
    algs = builtin_algebras()
    seen = {}
    for window in (None, (-2, 2), (-1, 1)):
        for name in sorted(algs):
            for _ in range(12):
                t = perturbed_flip(algs[name], window, r)
                kind = compare_with_reference(t)
                seen[kind] = seen.get(kind, 0) + 1
    # every way the two may differ, or not, is met
    assert set(seen) == {"raises", "equal", "newly exact", "newly inexact"}, seen


def test_an_inverse_of_a_clipped_table_is_not_exact():
    # x^2·1⊗1 lies past the window's top: the entry is an inexact zero, and
    # the inverse of a table that lost a term cannot be exact data
    z2 = make_z2()
    flip = flip_twist(z2, z2).table
    cols = dict(flip.columns)
    cols[("g", "g")] = SeriesVector(flip.codomain, {
        ("g", "g"): Series.const(1),
        ("one", "one"): Series(("x",), {(2,): Q(1)}, (-1, 1))})
    t = TwistOp("clipped", z2, z2,
                SeriesMap(flip.domain, flip.codomain, cols))
    inverse = invert_twisting(t)
    assert not exactness(inverse)
    assert fields(inverse) == fields(reference_inverse(t))
