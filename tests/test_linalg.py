"""Exact linear algebra over series-valued vectors and maps."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from nvaw.linalg import (
    Inconsistent, SeriesMap, SeriesVector, Space, UniqueSolution,
    Underdetermined, _row_reduce, basis_tuples, matrix_inverse, matrix_rank,
    solve_linear,
)
from nvaw.registry import (
    builtin_algebras, builtin_smaps, builtin_smash, builtin_twists, make_e2,
)
from nvaw.series import DEFAULT_RANGE, EmptyWindow, Q, Series
from test_series import in_normal_form

from apply_chains import rekeyed_compose

A = Space("A", ("a1", "a2"))
B = Space("B", ("b1", "b2", "b3"))


def test_basis_tuples():
    assert len(basis_tuples((A, B))) == 6
    assert basis_tuples((A,))[0] == ("a1",)


def test_spaces_compare_by_name_and_basis_order():
    same = Space("A", ("a1", "a2"))
    assert same == A and hash(same) == hash(A)
    assert Space("A2", A.basis) != A
    assert Space("A", ("a2", "a1")) != A
    with pytest.raises(AssertionError, match="duplicate labels in D"):
        Space("D", ("d", "e", "d"))


def test_vector_arithmetic():
    v = SeriesVector.basis((A,), ("a1",))
    w = SeriesVector.basis((A,), ("a2",))
    s = v + w.scale(Q(2))
    assert s.get(("a1",)).coeff(()) == 1
    assert s.get(("a2",)).coeff(()) == 2
    assert (s - s).is_zero()


def test_tensor_and_permute():
    v = SeriesVector.basis((A,), ("a1",))
    w = SeriesVector.basis((B,), ("b2",))
    t = v.tensor(w)
    assert t.spaces == (A, B)


def test_map_apply_on_legs():
    flip = SeriesMap.flip(A, B)
    vec = SeriesVector.basis((A, B, A), ("a1", "b1", "a2"))
    out = flip.apply(vec, (0, 1))
    assert out.spaces == (B, A, A)
    assert out.get(("b1", "a1", "a2")).coeff(()) == 1


def test_map_compose_identity():
    ident = SeriesMap.identity((A,))
    flipAB = SeriesMap.flip(A, A)
    assert flipAB.compose(flipAB).columns.keys() == \
        SeriesMap.identity((A, A)).columns.keys()


def registry_tables(rng=DEFAULT_RANGE):
    """Every table the registry builds at the window rng, and two from E2 at
    the window 0..0, where the x·t term of Y(s,x)1 is clipped to an inexact
    zero: E2's own table, and the table of its clipped entries alone."""
    tables = [a.y for a in builtin_algebras(rng).values()]
    for t in builtin_twists(rng).values():
        tables += [t.table] + ([t.inverse] if t.inverse is not None else [])
    tables += [s.table for s in builtin_smaps(rng).values()]
    for d in builtin_smash().values():
        tables += [d.coalgebra.coproduct, d.coalgebra.counit,
                   d.action.action, d.coaction.coaction]
    e2 = make_e2((0, 0)).y
    clipped = SeriesMap(e2.domain, e2.codomain, {
        key: SeriesVector(e2.codomain, {
            k: s for k, s in col.entries.items() if s.is_zero()})
        for key, col in e2.columns.items()})
    return tables + [e2, clipped]


def entries(vec):
    return [(key, s.variables, s.coeffs, s.window, s.exact)
            for key, s in vec.entries.items()]


def extension(m, spaces, legs):
    """The identity extension of m to the given contiguous legs of spaces,
    by its definition: m applied on those legs of every basis vector."""
    spaces = tuple(spaces)
    cols = {t: m.apply(SeriesVector.basis(spaces, t), legs)
            for t in basis_tuples(spaces)}
    lo, hi = min(legs), max(legs) + 1
    return SeriesMap(spaces, spaces[:lo] + m.codomain + spaces[hi:], cols)


def table_under_a_window_without_0():
    """A table whose window (1, 3) does not hold the exponent 0 that lifting
    a constant onto its variable puts in."""
    def s(coeffs):
        return Series(("x",), coeffs, (1, 3))
    return SeriesMap((A,), (A, B), {
        ("a1",): SeriesVector((A, B), {("a1", "b2"): s({(1,): 2, (3,): -1}),
                                       ("a2", "b1"): s({(2,): Q(1, 2)})}),
        ("a2",): SeriesVector((A, B), {("a2", "b3"): s({(1,): 1})})})


@pytest.mark.parametrize("rng", [(-8, 8), (0, 0), (-1, 1)])
def test_identity_tensor_extension_follows_the_definition(rng):
    m = SeriesMap.flip(A, A)
    ext = m.tensor(SeriesMap.identity((B,)))
    vec = SeriesVector.basis((A, A, B), ("a1", "a2", "b1"))
    out = ext.apply(vec)
    assert out.get(("a2", "a1", "b1")).coeff(()) == 1
    # identity ⊗ m ⊗ identity, column by column: the definition, and m's
    # column with the labels of the other legs put around each of its keys,
    # the coefficient 1 changing no entry
    tables = registry_tables(rng)
    clipped = tables[-1]
    inexact_only = 0
    for m in [m] + tables + [table_under_a_window_without_0()]:
        for before, after in (((), ()), ((B,), ()), ((), (A,)), ((A, B), (B,))):
            lo, hi = len(before), len(before) + len(m.domain)
            ext = SeriesMap.identity(before).tensor(m).tensor(
                SeriesMap.identity(after))
            want = extension(m, before + m.domain + after, range(lo, hi))
            assert (ext.domain, ext.codomain) == (want.domain, want.codomain)
            assert ext.columns.keys() == want.columns.keys()
            for t, col in ext.columns.items():
                assert entries(col) == entries(want.columns[t])
                assert entries(col) == [
                    (t[:lo] + key + t[hi:], *rest)
                    for key, *rest in entries(m.column(t[lo:hi]))]
                if all(s.is_zero() for s in col.entries.values()):
                    assert col.exact() is False
                    inexact_only += m is clipped
    # the clipped table's one column, at (s, one), under each extension
    assert inexact_only == 1 + len(B) + len(A) + len(A) * len(B) * len(B)


def const(c, space=(A,), key=("a1",)):
    return SeriesVector(space, {key: Series.const(c)})


def solve(blocks, unknowns):
    """solve_linear with one right-hand side: blocks (target, images), the
    images keyed by the unknowns themselves."""
    return solve_linear([({0: target}, images) for target, images in blocks],
                        {(0, u): u for u in unknowns})


def test_solve_linear_unique():
    # x + y == 3, x - y == 1 encoded through series coefficients
    blocks = [(const(3), {"x": const(1), "y": const(1)}),
              (const(1), {"x": const(1), "y": const(-1)})]
    sol = solve(blocks, ["x", "y"])
    assert isinstance(sol, UniqueSolution)
    assert sol.assignment == {"x": Q(2), "y": Q(1)}
    # a variable-free target against an image in x: one equation at
    # exponent (0,), not one at () and one at (0,)
    image = SeriesVector((A,), {("a1",): Series.monomial("x", 0)})
    assert solve([(const(2), {"x": image})], ["x"]) == \
        UniqueSolution({"x": Q(2)})


def test_solve_linear_underdetermined_and_inconsistent():
    under = solve([(const(1), {"x": const(1)})], ["x", "y"])
    assert isinstance(under, Underdetermined)
    assert under.free == ["y"]
    bad = solve([(const(1), {"x": const(0)})], ["x"])
    assert isinstance(bad, Inconsistent)


def equations(*rows):
    """One block per (key, {unknown: coeff}, rhs), in order."""
    space = (Space("C", tuple(key for key, _, _ in rows)),)
    return [(const(c, space, (key,)),
             {u: const(a, space, (key,)) for u, a in terms.items()})
            for key, terms, c in rows]


def test_inconsistent_witness_is_the_first_contradicting_equation():
    sol = solve(equations(("c1", {"x": 1}, 1), ("c2", {"y": 1}, 2),
                          ("c3", {"x": 1, "y": 1}, 4)), ["x", "y"])
    assert sol == Inconsistent((("c3",), ()))
    assert UniqueSolution(sol.witness) != sol
    # y=2 is the first to contradict the equations before it; y=1 only
    # contradicts later ones, and y=3 comes after y=2
    sol = solve(equations(("c1", {"y": 1}, 1), ("c2", {"y": 1}, 2),
                          ("c3", {"x": 1}, 1), ("c4", {"y": 1}, 3)),
                ["x", "y"])
    assert sol == Inconsistent((("c2",), ()))
    # x^5 in the target contradicts x == 1 only where the image reaches it:
    # outside the image's window it gives no equation
    target = SeriesVector((A,), {("a1",): Series(("x",), {(0,): 1, (5,): 7},
                                                 DEFAULT_RANGE)})
    for window, want in (((-8, 8), Inconsistent((("a1",), (5,)))),
                         ((-2, 2), UniqueSolution({"x": Q(1)}))):
        image = SeriesVector((A,), {("a1",): Series(("x",), {(0,): 1}, window)})
        assert solve([(target, {"x": image})], ["x"]) == want
    # sides whose windows do not meet cannot be compared
    image = SeriesVector((A,), {("a1",): Series(("x",), {(9,): 1}, (9, 10))})
    with pytest.raises(EmptyWindow):
        solve([(target, {"x": image})], ["x"])


def test_matrix_rank_and_inverse():
    assert matrix_rank([{0: 1, 1: 2}, {0: 2, 1: 4}], 2) == 1
    inv = matrix_inverse([{0: 2}, {1: 4}])
    assert inv == [[Q(1, 2), 0], [0, Q(1, 4)]]
    assert matrix_inverse([{0: 1, 1: 1}, {0: 1, 1: 1}]) is None
    # an empty row is a zero row
    assert matrix_rank([{}, {1: 3}, {}], 2) == 1
    assert matrix_rank([], 3) == 0
    assert matrix_inverse([{0: 1}, {}]) is None


# ---------------------------------------------------------------------------
# sympy's exact linear algebra over QQ as an independent oracle for
# elimination


# the values of st.fractions(-3, 3, max_denominator=3), sampled from their
# finite set: a filtered draw rejects often enough to fail the health check
FRACTIONS = sorted({Fraction(p, q) for p in range(-9, 10) for q in (1, 2, 3)
                    if abs(Fraction(p, q)) <= 3})
fractions = st.sampled_from(FRACTIONS)
integers = st.integers(min_value=-3, max_value=3)
nonzeros = st.one_of(st.sampled_from([f for f in FRACTIONS if f]),
                     st.sampled_from([i for i in range(-3, 4) if i]))
row_kinds = st.sampled_from(("fresh",) * 4 + ("copy", "combination"))


def normal(x):
    """The rational x in the normal form of Series coefficients."""
    return x.numerator if x.denominator == 1 else x


@st.composite
def systems(draw, size=8, square=False, normalized=False):
    """The rows of a rational matrix, and two right-hand sides: one
    consistent, the rows times drawn values, and one drawn freely.

    The matrix has at most size rows and columns, half the draws from the
    upper half of the sizes, where elimination clears a new pivot from many
    held rows.  It is square if asked, and a square one is shifted by 4 on
    the diagonal half of the time, which makes most of them invertible.
    Its entries are ints and Fractions, with some rows repeated and some
    rows sums of multiples of earlier rows; a fresh row holds a handful of
    nonzeros, so the larger the size, the sparser the matrix.  If asked,
    every entry is put in the normal form of Series coefficients."""
    dims = st.one_of(st.integers(1, size), st.integers(max(1, size // 2), size))
    nrows = draw(dims)
    ncols = nrows if square else draw(dims)
    fresh = st.dictionaries(st.integers(0, ncols - 1), nonzeros, max_size=ncols)
    rows = []
    for _ in range(nrows):
        kind = draw(row_kinds)
        if kind == "copy" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "combination" and rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(fractions), draw(fractions)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        else:
            cells = draw(fresh)
            rows.append([cells.get(j, 0) for j in range(ncols)])
    if nrows == ncols and draw(st.booleans()):
        rows = [[x + 4 * (i == j) for j, x in enumerate(r)]
                for i, r in enumerate(rows)]
    values = draw(st.lists(draw(st.sampled_from((fractions, integers))),
                           min_size=ncols, max_size=ncols))
    consistent = [sum(a * v for a, v in zip(r, values)) for r in rows]
    free = draw(st.lists(st.one_of(st.just(0), fractions),
                         min_size=nrows, max_size=nrows))
    if normalized:
        rows = [[normal(x) for x in r] for r in rows]
        consistent = [normal(x) for x in consistent]
        free = [normal(x) for x in free]
    return rows, consistent, free


def _dm(rows):
    """The rows as a sympy matrix over QQ."""
    return DomainMatrix([[QQ(x.numerator, x.denominator) for x in r]
                         for r in rows], (len(rows), len(rows[0])), QQ)


def _q(x):
    return Q(int(x.numerator), int(x.denominator))


def _independent(rows):
    """The rows not in the span of the rows before them: the pivot columns
    of the transpose."""
    return set(_dm([list(c) for c in zip(*rows)]).rref()[1])


def _dict_rows(rows):
    """The nonzero entries of each dense row, as {column: value}."""
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


def test_the_lead_is_the_lowest_column_not_the_first_key():
    # keys out of column order, a carried column (>= 4) listed first; the
    # last row is twice the first with a carried 7, so it is set aside
    rows = [{3: 1, 0: 2}, {5: 1, 2: 3, 1: 1}, {4: 2, 3: 1, 1: 2},
            {5: 7, 3: 2, 0: 4}]
    ordered = [dict(sorted(r.items())) for r in rows]
    pivots, rest = _row_reduce(rows, 4)
    assert (pivots, rest) == _row_reduce(ordered, 4)
    assert sorted(pivots) == [0, 1, 2]
    assert rest == [(3, {5: 7})]
    assert matrix_rank(rows, 4) == matrix_rank(ordered, 4) == 3


def check_solve_linear(rows, rhs):
    """solve_linear on the equations row . u == rhs, one per key, against
    sympy's rref of the augmented matrix."""
    n = len(rows[0])
    unknowns = [f"u{j}" for j in range(n)]
    sol = solve(equations(*[(f"e{i}", dict(zip(unknowns, r)), c)
                            for i, (r, c) in enumerate(zip(rows, rhs))]),
                unknowns)

    aug = [r + [c] for r, c in zip(rows, rhs)]
    reduced, pivots = _dm(aug).rref()
    if n in pivots:
        # the first equation that contradicts the ones before it: the first
        # row independent of the rows before it only with its right-hand side
        first = min(_independent(aug) - _independent(rows))
        assert sol == Inconsistent(((f"e{first}",), ()))
        return sol
    reduced = reduced.to_list()
    values = {unknowns[j]: _q(reduced[k][n]) for k, j in enumerate(pivots)}
    if len(pivots) == n:
        assert sol == UniqueSolution(values)
    else:
        assert sol == Underdetermined(
            len(pivots), [u for j, u in enumerate(unknowns) if j not in pivots],
            {u: values.get(u, Q(0)) for u in unknowns})
    return sol


@settings(max_examples=100, deadline=None)
@given(systems())
def test_matrix_rank_matches_sympy(system):
    rows = system[0]
    rank = _dm(rows).rank()
    assert matrix_rank(_dict_rows(rows), len(rows[0])) == rank
    # the rank of the transpose, which check_Z2_injectivity takes
    assert matrix_rank(_dict_rows(zip(*rows)), len(rows)) == rank


def check_matrix_inverse(rows):
    """matrix_inverse of a square matrix against sympy's inverse over QQ."""
    m = _dm(rows)
    inv = matrix_inverse(_dict_rows(rows))
    if m.rank() < len(rows):
        assert inv is None
    else:
        assert inv == [[_q(x) for x in r] for r in m.inv().to_list()]
    return inv


@settings(max_examples=100, deadline=None)
@given(systems(square=True))
def test_matrix_inverse_matches_sympy(system):
    check_matrix_inverse(system[0])


@settings(max_examples=100, deadline=None)
@given(systems())
def test_solve_linear_matches_sympy_rref(system):
    rows, consistent, free = system
    check_solve_linear(rows, consistent)
    check_solve_linear(rows, free)


@settings(max_examples=30, deadline=None)
@given(systems(size=30))
def test_row_reduce_of_larger_systems_matches_sympy_rref(system):
    # up to 30×30, where a new pivot is cleared from many held rows; two
    # carried columns, a consistent right-hand side and a free one
    rows, consistent, free = system
    n = len(rows[0])
    aug = [r + [c, f] for r, c, f in zip(rows, consistent, free)]
    pivots, rest = _row_reduce(_dict_rows(aug), n)

    reduced, sym_pivots = _dm(aug).rref()
    reduced = [[_q(x) for x in r] for r in reduced.to_list()]
    assert sorted(pivots) == [j for j in sym_pivots if j < n]
    # each pivot row, cleared in the pivot columns of the carried part
    # (those of the free right-hand side's contradictions), is sympy's row
    carried = [k for k, j in enumerate(sym_pivots) if j >= n]
    for k, j in enumerate(sym_pivots[:len(pivots)]):
        row = [pivots[j].get(c, Q(0)) for c in range(n + 2)]
        for m in carried:
            q = sym_pivots[m]
            row = [x - row[q] * y for x, y in zip(row, reduced[m])]
        assert row == reduced[k]
    # a row is set aside exactly when it lies in the span of the rows
    # before it, its leftovers spanning what the carried pivots span
    kept = _independent(rows)
    assert [i for i, _ in rest] == [i for i in range(len(rows)) if i not in kept]
    leftovers = [[x.get(c, 0) for c in (n, n + 1)] for _, x in rest]
    assert (_dm(leftovers).rank() if leftovers else 0) == len(carried)

    assert matrix_rank(_dict_rows(rows), n) == len(pivots)
    check_solve_linear(rows, consistent)
    check_solve_linear(rows, free)


@settings(max_examples=100, deadline=None)
@given(systems(square=True, normalized=True))
def test_elimination_keeps_the_normal_form(system):
    """Given entries in normal form, _row_reduce, solve_linear and
    matrix_inverse give every entry in it, with sympy's values."""
    rows, consistent, free = system
    n = len(rows)
    for rhs in (consistent, free):
        pivots, rest = _row_reduce(
            _dict_rows([r + [c] for r, c in zip(rows, rhs)]), n)
        assert all(in_normal_form(x) for row in pivots.values()
                   for x in row.values())
        assert all(in_normal_form(x) for _, row in rest for x in row.values())
        sol = check_solve_linear(rows, rhs)
        for found in (vars(sol).get("assignment", {}),
                      vars(sol).get("particular", {})):
            assert all(in_normal_form(x) for x in found.values())
    inv = check_matrix_inverse(rows)
    if inv is not None:
        assert all(in_normal_form(x) for row in inv for x in row)


def test_a_repeated_equation_enters_once_by_value(monkeypatch):
    import nvaw.linalg as linalg

    seen = []
    real = linalg._row_reduce

    def spy(rows, ncols):
        seen.append([dict(r) for r in rows])
        return real(rows, ncols)

    monkeypatch.setattr(linalg, "_row_reduce", spy)
    # x + 2y == 3 once in ints, then in equal Fractions at another key
    sol = solve(equations(("c1", {"x": 1, "y": 2}, 3),
                          ("c2", {"x": Q(1), "y": Q(4, 2)}, Q(3)),
                          ("c3", {"y": 1}, 1)), ["x", "y"])
    assert sol == UniqueSolution({"x": Q(1), "y": Q(1)})
    assert len(seen[-1]) == 2
    # a contradicting equation given twice: the first is the witness
    sol = solve(equations(("c1", {"x": 1}, 1), ("c2", {"x": 1}, 2),
                          ("c3", {"x": Q(1)}, Q(2))), ["x"])
    assert sol == Inconsistent((("c2",), ()))
    assert len(seen[-1]) == 2


def columnwise_compose(outer, inner):
    """SeriesMap.compose as it was: outer applied to every inner column."""
    return SeriesMap(inner.domain, outer.codomain,
                     {k: outer.apply(v) for k, v in inner.columns.items()})


def test_compose_over_the_support_equals_the_columnwise_apply():
    # every registry table composed after every other whose codomain holds
    # its domain as contiguous legs, extended by the identity there; with
    # them the projection of E2 onto t, which acts on the second key of the
    # column Y(s,x)1 = s + x·t but not on its first
    e2 = make_e2().space
    only_t = SeriesMap((e2,), (e2,), {("t",): SeriesVector.basis((e2,), ("t",))})
    tables = registry_tables() + [only_t]
    composed = skipped = inexact_only = 0
    for inner in tables:
        for outer in tables:
            n, m = len(inner.codomain), len(outer.domain)
            for lo in range(n - m + 1):
                if inner.codomain[lo:lo + m] != outer.domain:
                    continue
                ext = extension(outer, inner.codomain, range(lo, lo + m))
                got = ext.compose(inner)
                want = columnwise_compose(ext, inner)
                skipped += sum(ext.columns.keys().isdisjoint(v.entries)
                               for v in inner.columns.values())
                assert (got.domain, got.codomain) == (want.domain, want.codomain)
                assert list(got.columns) == list(want.columns)
                for key, col in got.columns.items():
                    assert entries(col) == entries(want.columns[key])
                    inexact_only += all(s.is_zero() for s in col.entries.values())
                composed += 1
    # columns outside the support are skipped, and compose to nothing
    assert composed > 200 and skipped > 0
    # E2 at the window 0..0 keeps columns of inexact zeros through composition
    assert inexact_only > 0


@pytest.mark.parametrize("rng", [(-8, 8), (0, 0), (-1, 1)])
def test_compose_on_legs_equals_compose_with_the_identity_extension(rng):
    # every registry table composed after every other whose codomain sits
    # in its domain as contiguous legs; the oracle builds the identity
    # extension of the inner map, which compose on those legs never does
    tables = registry_tables(rng)
    placed = inexact_only = 0
    for outer in tables:
        for inner in tables:
            m = len(inner.codomain)
            for lo in range(len(outer.domain) - m + 1 if m else 0):
                if outer.domain[lo:lo + m] != inner.codomain:
                    continue
                spaces = outer.domain[:lo] + inner.domain + outer.domain[lo + m:]
                ext = extension(inner, spaces, range(lo, lo + len(inner.domain)))
                want = outer.compose(ext)
                got = outer.compose(inner, tuple(range(lo, lo + m)))
                assert (got.domain, got.codomain) == (want.domain, want.codomain)
                # the columns come in the inner map's order, the extension's
                # in basis order
                assert got.columns.keys() == want.columns.keys()
                for key, col in got.columns.items():
                    assert entries(col) == entries(want.columns[key])
                    inexact_only += all(s.is_zero() for s in col.entries.values())
                placed += 1
    assert placed > 200
    # E2 at the window 0..0 composes to columns of inexact zeros
    assert inexact_only > 0


# ---------------------------------------------------------------------------
# apply builds its vector once and keeps what the constructor keeps


def test_apply_keeps_a_clipped_zero_and_drops_an_exact_cancellation():
    w = (-2, 2)
    x = lambda e, c=1: Series(("x",), {(e,): Q(c)}, w)
    # Y(a1) = x^2·b1: on x·a1 every product lands on x^3, outside the window
    mp = SeriesMap((A,), (B,), {("a1",): SeriesVector((B,), {("b1",): x(2)}),
                                ("a2",): SeriesVector((B,), {("b1",): x(0, -1),
                                                             ("b2",): x(0)})})
    out = mp.apply(SeriesVector((A,), {("a1",): x(1)}))
    product = x(1) * x(2)
    assert product.is_zero() and not product.exact
    assert entries(out) == entries(SeriesVector((B,), {("b1",): product}))
    assert entries(out) == [(("b1",), ("x",), {}, w, False)]
    assert not out.exact()
    # b1 cancels exactly between the two columns and leaves the vector
    out = mp.apply(SeriesVector((A,), {("a1",): x(0), ("a2",): x(2)}))
    assert entries(out) == [(("b2",), ("x",), {(2,): 1}, w, True)]
    assert entries(SeriesVector((B,), {("b1",): x(2) - x(2)})) == []
    # a cancellation next to a clipped product is a zero that says so
    out = mp.apply(SeriesVector((A,), {("a1",): x(1) + x(0), ("a2",): x(2)}))
    assert entries(out) == [(("b1",), ("x",), {}, w, False),
                            (("b2",), ("x",), {(2,): 1}, w, True)]


# ---------------------------------------------------------------------------
# apply sums the products at a key into one coefficient dict; the sequence
# of * and + it replaces is kept here as the oracle


def sequential_apply(m, vec, legs=None):
    """The entries of m.apply(vec, legs) by its definition: each product
    s * cs added with + to the entry at its key, in turn.  A sum that
    cancels exactly leaves the vector, and a later product puts its key
    back, at the end."""
    lo, hi = (0, len(vec.spaces)) if legs is None else (legs[0], legs[-1] + 1)
    out = {}
    for key, s in vec.entries.items():
        col = m.columns.get(key[lo:hi])
        if col is None:
            continue
        for ckey, cs in col.entries.items():
            k = key[:lo] + ckey + key[hi:]
            t = out[k] + s * cs if k in out else s * cs
            if not t.coeffs and t.exact:
                out.pop(k, None)
            else:
                out[k] = t
    return out


def fields(entries):
    """Every field of every entry, in entry order, with each coefficient's
    exponent, type and value in coefficient order."""
    return [(k, s.variables, [(ex, type(c), c) for ex, c in s.coeffs.items()],
             s.window, s.exact) for k, s in entries.items()]


def assert_apply_is_sequential(m, vec, legs=None):
    out = m.apply(vec, legs)
    assert fields(out.entries) == fields(sequential_apply(m, vec, legs))
    assert_normal_entries(out)
    return out


def assert_normal_entries(vec):
    assert all(in_normal_form(c) for s in vec.entries.values()
               for c in s.coeffs.values())


C = Space("C", ("c1", "c2", "c3", "c4"))
LAYOUTS = ((), ("x0",), ("x1",), ("x2",), ("x1", "x2"), ("x0", "x2"))
APPLY_WINDOWS = (None, (-8, 8), (0, 0), (1, 3))


@pytest.mark.parametrize("window", APPLY_WINDOWS)
def test_apply_sums_each_kind_of_product_as_the_sequence_does(window):
    e = max(0, window[0]) if window else 1

    def x(var, c=1, exact=True):
        return Series((var,), {(e,): Q(c)}, window, exact)

    def apply(vec, cols):
        m = SeriesMap((C,), (B,), {(c,): SeriesVector((B,), col)
                                   for c, col in cols.items()})
        return assert_apply_is_sequential(m, SeriesVector((C,), vec))

    # placements in both variable orders and a scale, summed at one key
    out = apply({("c1",): x("x1"), ("c2",): x("x2"), ("c3",): Series.const(2)},
                {"c1": {("b1",): x("x2")}, "c2": {("b1",): x("x1")},
                 "c3": {("b1",): x("x1") * x("x2", 3)}})
    assert fields(out.entries) == [(("b1",), ("x1", "x2"), [
        ((e, e), int, 8)], window, True)]
    # b1 cancels exactly and a later product puts it back after b2
    out = apply({("c1",): x("x1"), ("c2",): x("x1", -1), ("c3",): x("x1")},
                {"c1": {("b1",): x("x2"), ("b2",): x("x2")},
                 "c2": {("b1",): x("x2")}, "c3": {("b1",): x("x2", 5)}})
    assert list(out.entries) == [("b2",), ("b1",)]
    # an inexact cancellation stays, an inexact zero
    out = apply({("c1",): x("x1"), ("c2",): x("x1", -1, exact=False)},
                {"c1": {("b1",): x("x2")}, "c2": {("b1",): x("x2")}})
    assert fields(out.entries) == [(("b1",), ("x1", "x2"), [], window, False)]
    # overlapping variables leave the placed sum for * and +, and a
    # placement after them adds to what they built
    out = apply({("c1",): x("x1"), ("c2",): x("x1"), ("c3",): x("x1")},
                {"c1": {("b1",): x("x2")}, "c2": {("b1",): x("x1", 4)},
                 "c3": {("b1",): x("x2", 2)}})
    assert ("b1",) in out.entries
    if window is None:
        return
    # a placement under no window adds to one under the window as + does,
    # clipped to the window
    free = Series(("x2",), {(window[1] + 1,): 1, (e,): 1}, None)
    out = apply({("c1",): x("x1"), ("c2",): Series(("x1",), {(e,): 1}, None)},
                {"c1": {("b1",): x("x2")}, "c2": {("b1",): free}})
    assert fields(out.entries) == [(("b1",), ("x1", "x2"), [
        ((e, e), int, 2)], window, False)]
    if window[1] > e:
        # an int coefficient that a later product adds at a new exponent
        # stays an int, as it does in Series +
        out = apply({("c1",): x("x1"), ("c2",): Series.const(3)},
                    {"c1": {("b1",): x("x2")},
                     "c2": {("b1",): Series(("x1", "x2"), {(e, e + 1): 1},
                                            window)}})
        assert fields(out.entries)[0][2] == [((e, e), int, 1),
                                             ((e, e + 1), int, 3)]


def test_a_missing_entry_is_one_zero_that_no_kernel_operation_changes():
    vec = SeriesVector.basis((A,), ("a1",))
    zero = vec.get(("a2",))
    assert SeriesVector.zero((B,)).get(("b3",)) is zero
    s = Series(("x1", "x2"), {(1, -1): Q(2)}, (-2, 2))
    for op in (lambda: zero + s, lambda: s - zero, lambda: -zero,
               lambda: zero * s, lambda: s * zero, lambda: zero.scale(0),
               lambda: zero.scale(3), lambda: zero.rename({"x": "-x1"}),
               lambda: zero.deriv("x"), lambda: zero.extract("x", 0),
               lambda: zero.substitute_sum("x", "x1", "x2"),
               lambda: zero.align(("x1",), (-1, 1)),
               lambda: SeriesVector((A,), {("a1",): zero}).scale(s),
               lambda: vec + SeriesVector((A,), {("a1",): zero}),
               lambda: vec.transform(lambda t: zero + t)):
        op()
        assert (zero.variables, zero.coeffs, zero.window, zero.exact) == \
            ((), {}, None, True)


# ---------------------------------------------------------------------------
# apply, compose and tensor against their definitions: apply as the sequence
# of * and + it replaces, compose as apply on every column, and each column
# of a tensor product as the products of the two columns' entries; every
# coefficient they give keeps the normal form of Series coefficients


ODD_HALVES = st.sampled_from([Q(n, 2) for n in (-3, -1, 1, 3)])
FACTORS = st.sampled_from([1, -1, 2, Q(1, 2)])
# the vector's entries mostly in x1 and the maps' mostly in x2, so that most
# products are placements that meet at a key
VECTOR_LAYOUTS = st.sampled_from((("x1",),) * 3 + ((),) + LAYOUTS)
MAP_LAYOUTS = st.sampled_from((("x2",),) * 3 + ((),) + LAYOUTS)
# the spaces of the vector, and the legs of C in it
PLACEMENTS = (((C,), None), ((C, A), (0,)), ((A, C), (1,)))


@st.composite
def maps_and_vector(draw, placements=PLACEMENTS):
    """(inner: A -> C, outer: C -> B, vector, legs of C in the vector).

    The vector is over the spaces of one of the placements, with two to
    eight keys or up to six.  Its entries, and apart from them the maps',
    come half of the time from a pool of one to four series and their
    negatives, so that products meet at a key, cancel and come back, and
    otherwise are each drawn on their own.  The maps' columns have up to
    three keys, half of the time at least one, and the outer map's come
    from one to four templates.  Half of the time the coefficients are any
    small rationals, and otherwise odd halves in the vector and small ints
    and halves in the maps: products of the two meet at a key and an
    exponent, and two odd halves sum to an integer.  Each series is in x1
    (mostly, in the vector), in x2 (mostly, in the maps) or in any layout,
    under the example's window or none, and its exponents mostly lie
    inside the window; some are inexact, some clipped, some inexact zeros.
    """
    window = draw(st.sampled_from(APPLY_WINDOWS))
    lo, hi = window or (-1, 3)
    exponent = st.one_of(st.integers(max(lo, -1), min(hi, 3)),
                         st.integers(-1, 3))
    vector_values, map_values = draw(st.sampled_from(
        ((nonzeros, nonzeros), (ODD_HALVES, FACTORS))))

    def series(values, layouts):
        variables = draw(layouts)
        terms = st.tuples(st.tuples(*[exponent] * len(variables)), values)
        return Series(variables, dict(draw(st.lists(terms, max_size=2))),
                      draw(st.sampled_from((window, window, window, None))),
                      draw(st.sampled_from((True, True, True, False))))

    def entries(values, layouts):
        """A function that draws one entry."""
        if draw(st.booleans()):
            return lambda: series(values, layouts)
        pool = st.sampled_from([series(values, layouts)
                                for _ in range(draw(st.integers(1, 4)))])
        return lambda: -draw(pool) if draw(st.booleans()) else draw(pool)

    def vector(spaces, entry, fewest, most):
        keys = draw(st.lists(st.sampled_from(basis_tuples(spaces)),
                             unique=True, min_size=fewest, max_size=most))
        return SeriesVector(spaces, {k: entry() for k in keys})

    map_entry = entries(map_values, MAP_LAYOUTS)
    vector_entry = entries(vector_values, VECTOR_LAYOUTS)
    fewest = draw(st.integers(0, 1))
    inner = SeriesMap((A,), (C,), {(a,): vector((C,), map_entry, fewest, 3)
                                   for a in A.basis})
    templates = [vector((B,), map_entry, fewest, 3)
                 for _ in range(draw(st.integers(1, 4)))]
    outer = SeriesMap((C,), (B,), {(c,): draw(st.sampled_from(templates))
                                   for c in C.basis})
    spaces, legs = draw(st.sampled_from(placements))
    fewest, most = draw(st.sampled_from(((2, 8), (0, 6))))
    return inner, outer, vector(spaces, vector_entry, fewest, most), legs


@settings(max_examples=200, deadline=None)
@given(maps_and_vector())
def test_apply_equals_the_sequential_products_and_sums(case):
    _, outer, vec, legs = case
    assert_apply_is_sequential(outer, vec, legs)


@settings(max_examples=200, deadline=None)
@given(maps_and_vector(placements=(((A, C), (1,)),)))
def test_map_operations_keep_the_normal_form(case):
    inner, outer, vec, _ = case
    assert_apply_is_sequential(inner, vec, (0,))
    assert_apply_is_sequential(outer, vec, (1,))
    got, want = outer.compose(inner), columnwise_compose(outer, inner)
    assert list(got.columns) == list(want.columns)
    for key, col in got.columns.items():
        assert fields(col.entries) == fields(want.columns[key].entries)
        assert_normal_entries(col)
    # each column of the tensor product by its definition
    both = inner.tensor(outer)
    for k1, v1 in inner.columns.items():
        for k2, v2 in outer.columns.items():
            col = both.column(k1 + k2)
            assert fields(col.entries) == fields({
                c1 + c2: s1 * s2 for c2, s2 in v2.entries.items()
                for c1, s1 in v1.entries.items()})
            assert_normal_entries(col)


# ---------------------------------------------------------------------------
# compose sums each column in place, and tensor and transform build only
# what they return; the compose that re-keyed and applied each column is
# the oracle (apply_chains.rekeyed_compose)


def same_map(got, want):
    """Equal maps: domain, codomain, column order, and every field of every
    entry in entry order, each coefficient's type included."""
    assert (got.domain, got.codomain) == (want.domain, want.codomain)
    assert list(got.columns) == list(want.columns)
    for key, col in got.columns.items():
        assert col.spaces == want.columns[key].spaces
        assert fields(col.entries) == fields(want.columns[key].entries)
        assert_normal_entries(col)


@settings(max_examples=200, deadline=None)
@given(maps_and_vector())
def test_compose_tensor_and_transform_build_what_their_definitions_do(case):
    inner, outer, vec, legs = case
    lo, hi = (0, 1) if legs is None else (legs[0], legs[-1] + 1)
    # the outer map on the legs of C among the vector's spaces, its column
    # at each key of the vector scaled by the entry there
    on_legs = SeriesMap(vec.spaces, outer.codomain, {
        key: outer.column(key[lo:hi]).scale(s)
        for key, s in vec.entries.items()})
    for mp, at in ((outer, None), (on_legs, legs)):
        same_map(mp.compose(inner, at), rekeyed_compose(mp, inner, at))
    # tensor as the checked constructors build it
    for first, second in ((inner, outer), (outer, on_legs)):
        same_map(first.tensor(second), SeriesMap(
            first.domain + second.domain, first.codomain + second.codomain, {
                k1 + k2: SeriesVector(first.codomain + second.codomain, {
                    c1 + c2: s1 * s2 for c2, s2 in v2.entries.items()
                    for c1, s1 in v1.entries.items()})
                for k1, v1 in first.columns.items()
                for k2, v2 in second.columns.items()}))
    # a transform that returns every entry itself returns its input, as
    # does a change of the variable x to itself
    for mp in (inner, outer, on_legs):
        assert mp.transform(lambda s: s) is mp
        assert mp.at("x") is mp
        assert all(v.transform(lambda s: s) is v for v in mp.columns.values())
    assert vec.transform(lambda s: s) is vec
    # one that changes the entries builds the vector the constructor would,
    # an exact zero left out and an inexact one kept
    for fn in (lambda s: -s, lambda s: s - s):
        got = vec.transform(fn)
        assert (got is not vec) == bool(vec.entries)
        assert fields(got.entries) == fields(SeriesVector(vec.spaces, {
            k: fn(s) for k, s in vec.entries.items()}).entries)
