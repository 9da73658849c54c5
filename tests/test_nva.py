"""Nonlocal-vertex-algebra axioms on the built-in instances."""

import pytest

import apply_chains
from apply_chains import typed_entries
from nvaw.nva import (
    DEFAULT_KMAX, CheckItem, CheckReport, Outcome, adjoint_module,
    check_D_bracket, check_module, check_vacuum, check_weak_associativity,
    compute_D, exp_xD, scalar_of, window_equal_vec, weak_associativity_items,
)
from nvaw.linalg import SeriesMap, SeriesVector, Space, basis_tuples
from nvaw.nva import Nva
from nvaw.products import build_twisted_tensor
from nvaw.twist import flip_twist
from nvaw.registry import (
    builtin_algebras, make_e1, make_e1n, make_e2, make_z2,
)
from nvaw.series import (
    DEFAULT_RANGE, EmptyWindow, Eq, EqResult, Series, window_equal,
)

ALL = [make_e1, make_e1n, make_e2, make_z2]


@pytest.mark.parametrize("make", ALL)
def test_vacuum_axioms(make):
    rep = check_vacuum(make())
    assert rep.ok and rep.exact, rep.summary()


@pytest.mark.parametrize("make", ALL)
def test_weak_associativity(make):
    rep = check_weak_associativity(make())
    assert rep.ok and rep.exact, rep.summary()


@pytest.mark.parametrize("make", ALL)
def test_D_bracket(make):
    rep = check_D_bracket(make())
    assert rep.ok and rep.exact, rep.summary()


@pytest.mark.parametrize("make", ALL)
def test_adjoint_module(make):
    rep = check_module(adjoint_module(make()))
    assert rep.ok, rep.summary()


def test_D_operator_on_e2():
    e2 = make_e2()
    D = compute_D(e2)
    ds = D.apply(SeriesVector.basis((e2.space,), ("s",)))
    assert scalar_of(ds) == {("t",): 1}
    dt = D.apply(SeriesVector.basis((e2.space,), ("t",)))
    assert dt.is_zero()


def test_exp_xD_is_truncated_exponential():
    e2 = make_e2()
    col = exp_xD(e2).column(("s",))
    assert col.get(("s",)).coeff((0,)) == 1
    assert col.get(("t",)).coeff((1,)) == 1
    assert col.exact()


def test_creation_has_no_negative_powers():
    for make in ALL:
        a = make()
        for v in a.space.basis:
            col = a.vertex(v, a.vacuum)
            assert all(s.is_polynomial() for s in col.entries.values())


def test_window_equal_vec_sees_clipping_in_the_difference():
    # x^5 + 1 on the window -8..8 and 1 on -2..2 agree only on the common
    # window: the x^5 term is clipped out of the difference
    sp = Space("V", ("a", "b"))
    wide = Series(("x",), {(5,): 1, (0,): 1}, (-8, 8))
    narrow = Series(("x",), {(0,): 1}, (-2, 2))
    a = SeriesVector((sp,), {("a",): wide})
    b = SeriesVector((sp,), {("a",): narrow})
    assert window_equal(wide, narrow).kind is Eq.WINDOW
    assert window_equal_vec(a, b).kind is Eq.WINDOW
    assert window_equal_vec(b, a).kind is Eq.WINDOW
    assert window_equal_vec(a, a).kind is Eq.EXACT
    # the witness is the first unequal key and the smallest exponent of
    # the difference there, whichever side holds the key
    c = SeriesVector((sp,), {("a",): wide, ("b",): narrow})
    res = window_equal_vec(a, c)
    assert res.kind is Eq.UNEQUAL and res.witness == (("b",), (0,))
    assert window_equal_vec(c, a).witness == (("b",), (0,))


def test_window_equal_vec_witness_does_not_follow_entry_order():
    # the keys compare in entry order while they are equal; the witness is
    # still the first unequal key in sorted order
    sp = Space("V", ("a", "b", "c"))

    def x(e, window=(-2, 2)):
        return Series(("x",), {(e,): 1}, window)

    a = SeriesVector((sp,), {("c",): x(1), ("b",): x(0), ("a",): x(2)})
    b = SeriesVector((sp,), {("c",): x(2), ("b",): x(0), ("a",): x(-1)})
    res = window_equal_vec(a, b)
    assert (res.kind, res.witness) == (Eq.UNEQUAL, (("a",), (-1,)))
    # a key that only the second side holds
    res = window_equal_vec(SeriesVector((sp,), {("c",): x(1)}),
                           SeriesVector((sp,), {("c",): x(2), ("b",): x(0)}))
    assert (res.kind, res.witness) == (Eq.UNEQUAL, (("b",), (0,)))
    # at c the windows 0..0 and 2..2 do not meet, and the comparison
    # raises; a sorts first and is unequal, so it is the verdict
    a = SeriesVector((sp,), {("c",): x(0, (0, 0)), ("a",): x(1)})
    b = SeriesVector((sp,), {("c",): x(2, (2, 2)), ("a",): x(0)})
    with pytest.raises(EmptyWindow):
        window_equal(a.get(("c",)), b.get(("c",)))
    res = window_equal_vec(a, b)
    assert (res.kind, res.witness) == (Eq.UNEQUAL, (("a",), (0,)))
    # with a equal, the comparison at c raises
    b = SeriesVector((sp,), {("c",): x(2, (2, 2)), ("a",): x(1)})
    with pytest.raises(EmptyWindow):
        window_equal_vec(a, b)


def test_a_series_clipped_to_zero_keeps_its_vector_inexact():
    sp = Space("V", ("a",))
    clipped = SeriesVector((sp,), {("a",): Series(("x",), {(1,): 1}, (0, 0))})
    assert not clipped.exact()
    assert window_equal_vec(clipped, SeriesVector.zero((sp,))).kind is Eq.WINDOW


def pole_algebra():
    """A table on Q{one,a,b} with poles, which no registry algebra has:
    Y(a,x)a = x^-2 b, Y(b,x)a = x^-1 b, the vacuum acting as the identity,
    Y(a,x)one = a, Y(b,x)one = b, and every other column zero."""
    sp = Space("P", ("one", "a", "b"))

    def vec(lbl, e):
        return SeriesVector((sp,), {
            (lbl,): Series(("x",), {(e,): 1}, DEFAULT_RANGE)})

    cols = {("one", v): vec(v, 0) for v in sp.basis}
    cols.update({("a", "one"): vec("a", 0), ("b", "one"): vec("b", 0),
                 ("a", "a"): vec("b", -2), ("b", "a"): vec("b", -1)})
    return Nva("P", sp, "one", SeriesMap((sp, sp), (sp,), cols))


def test_vacuum_must_be_a_basis_label():
    alg = pole_algebra()
    with pytest.raises(AssertionError):
        Nva("P", alg.space, "c", alg.y)


def test_D_bracket_fails_where_only_the_derivative_has_a_column():
    # D = 0 here (no Y(v,x)1 has an x term), so [D,Y(v,x)]u and Y(Dv,x)u
    # vanish on every pair while d/dx Y(v,x)u does not at (a,a) and (b,a)
    items = [(i.name, i.outcome.name, i.detail)
             for i in check_D_bracket(pole_algebra()).items]
    assert len(items) == 18
    assert [item for item in items if item[1] != "EXACT_PASS"] == [
        ("Y(Da,x)a == d/dx Y(a,x)a", "FAIL", "witness (('b',), (-3,))"),
        ("Y(Db,x)a == d/dx Y(b,x)a", "FAIL", "witness (('b',), (-2,))")]


def test_weak_associativity_past_kmax_and_at_zero_triples():
    alg = pole_algebra()
    spaces = (alg.space,) * 3
    items = [(i.name, i.outcome.name, i.detail)
             for i in check_weak_associativity(alg, kmax=1).items]
    # Y(a,x1)Y(v,x2)w has pole order 2 in x1 where Y(v,x2)w = a, that is
    # at (v,w) = (one,a) and (a,one); every other triple has order <= 1
    assert [name for name, outcome, _ in items if outcome == "NO_K_FOUND"] \
        == ["assoc(a,one,a)", "assoc(a,a,one)"]
    # the item list as the per-triple comparison gave it: the items below,
    # and "k=0", exact-pass, without detail on every other triple
    other = [
        ("assoc(a,one,a)", "NO_K_FOUND", "pole order exceeds kmax=1"),
        ("assoc(a,a,one)", "NO_K_FOUND", "pole order exceeds kmax=1"),
        ("assoc(a,a,a) k=0", "FAIL", "witness (('b',), (-2, -1))"),
        ("assoc(b,one,a) k=1", "FAIL", "witness (('b',), (1, -1))"),
        ("assoc(b,a,one) k=1", "FAIL", "witness (('b',), (-1, 1))"),
        ("assoc(b,a,a) k=0", "FAIL", "witness (('b',), (-1, -1))"),
    ]
    by_triple = {name.split(" ")[0]: (name, outcome, detail)
                 for name, outcome, detail in other}
    names = ["assoc({},{},{})".format(*t) for t in basis_tuples(spaces)]
    assert items == [by_triple.get(name, (f"{name} k=0", "EXACT_PASS", ""))
                     for name in names]
    # both sides zero by their definition: 0 == 0, exact at k=0
    y1, y2, y0 = alg.y.at("x1"), alg.y.at("x2"), alg.y.at("x0")
    zero = []
    for t, item in zip(basis_tuples(spaces), items):
        vec = SeriesVector.basis(spaces, t)
        if (y1.apply(y2.apply(vec, (1, 2)), (0, 1)).is_zero()
                and y2.apply(y0.apply(vec, (0, 1)), (0, 1)).is_zero()):
            zero.append(t)
            assert item == ("assoc({},{},{}) k=0".format(*t), "EXACT_PASS", "")
    assert len(zero) == 12


def test_weak_associativity_witnesses_an_x_free_table_on_x0_x2():
    # E1n with n·p = 2·one, which breaks associativity; its table is x-free,
    # so every item is at k=0, where neither side is scaled, and each
    # failure is still witnessed on (x0, x2), as scaling by x1^0 and by
    # (x0+x2)^0 would place it
    alg = make_e1n()
    cols = dict(alg.y.columns)
    cols[("n", "p")] = SeriesVector((alg.space,), {("one",): Series.const(2)})
    bad = Nva("E1n'", alg.space, "one", SeriesMap(alg.y.domain, alg.y.codomain, cols))
    spaces = (bad.space,) * 3
    y1, y2, y0 = bad.y.at("x1"), bad.y.at("x2"), bad.y.at("x0")
    x1_0 = Series.monomial("x1", 0)
    want = []
    for t in basis_tuples(spaces):
        vec = SeriesVector.basis(spaces, t)
        lhs = y1.apply(y2.apply(vec, (1, 2)), (0, 1)).scale(x1_0).transform(
            lambda s: s.substitute_sum("x1", "x0", "x2"))
        rhs = y2.apply(y0.apply(vec, (0, 1)), (0, 1)).scale(
            x1_0.substitute_sum("x1", "x0", "x2"))
        res = window_equal_vec(lhs, rhs)
        if not res:
            want.append(("assoc({},{},{}) k=0".format(*t), f"witness {res.witness}"))
    got = [(i.name, i.detail) for i in check_weak_associativity(bad).items
           if not i.ok]
    assert got == want
    assert len(got) > 3 and all(d.endswith(", (0, 0))") for _, d in got)


def test_weak_associativity_applies_each_side_on_its_support(monkeypatch):
    """On (E2⊗E2)⊗E2 each side's inner table has 125 columns, placed under
    the 27 labels of the other leg: 3,375 candidate columns, none of them
    built as a map.  Only 343 have a key the outer table acts on: those are
    the only columns each side's compose accumulates."""
    from nvaw import linalg
    from nvaw.products import build_ordinary_tensor

    a, b, c = make_e2(), make_e2(), make_e2()
    p = build_ordinary_tensor(build_ordinary_tensor(a, b).nva, c).nva
    counts = []
    compose, summed = SeriesMap.compose, linalg._summed

    def counted_compose(self, inner, legs=None):
        counts.append(0)
        return compose(self, inner, legs)

    def counted_summed(*args):
        counts[-1] += 1
        return summed(*args)

    monkeypatch.setattr(SeriesMap, "compose", counted_compose)
    monkeypatch.setattr(linalg, "_summed", counted_summed)
    weak_associativity_items(p.y, p.y, (p.space,) * 3, 10, "assoc")
    # one compose per side: Y(·,x1) after Y(·,x2) on the left, Y(·,x2)
    # after Y(·,x0) on the right, one accumulation per result column
    assert counts == [343, 343]


# ---------------------------------------------------------------------------
# a live triple's sides are built in one pass each; the loop through
# transform and align that built them before is kept in apply_chains.py as
# the oracle


def with_pole(nva):
    """nva with the first entry of its last column times x^-1."""
    key = list(nva.y.columns)[-1]
    col = nva.y.column(key)
    label, s = next(iter(col.entries.items()))
    cols = dict(nva.y.columns)
    cols[key] = SeriesVector(col.spaces, {
        **col.entries, label: s * Series.monomial("x", -1)})
    return Nva(f"{nva.name}/x", nva.space, nva.vacuum,
               SeriesMap(nva.y.domain, nva.y.codomain, cols))


def with_x_free_vacuum(nva):
    """nva with each Y(1,x)v = v an x-free constant beside the windowed
    entries of its other columns: a side may then hold an entry in x2
    alone, under the table's window."""
    cols = dict(nva.y.columns)
    for v in nva.space.basis:
        cols[(nva.vacuum, v)] = SeriesVector.basis((nva.space,), (v,))
    return Nva(f"{nva.name}/1", nva.space, nva.vacuum,
               SeriesMap(nva.y.domain, nva.y.codomain, cols))


def flip_cube(rng):
    """The flip (E2 ⊗ E2) ⊗ E2 of E2 at the window rng, of dimension 27."""
    e2 = make_e2(rng)
    square = build_twisted_tensor(e2, e2, flip_twist(e2, e2)).nva
    return build_twisted_tensor(square, e2, flip_twist(square, e2)).nva


@pytest.mark.parametrize("rng", [DEFAULT_RANGE, (0, 0), (-1, 1)])
def test_live_triples_equal_the_transform_and_align_loop(rng, map_comparisons):
    """The same items, and at each live triple the same compared vectors:
    entries, coefficients with their types, windows and exactness flags,
    all in order.  Over the registry algebras, their adjoint modules, each
    algebra with an x-free vacuum and with a pole added (k > 0, fail
    witnesses, and no k at kmax = 0) and the dimension-27 host."""
    cases = []
    for alg in builtin_algebras(rng).values():
        mod, poled = adjoint_module(alg), with_pole(alg)
        free = with_x_free_vacuum(alg)
        cases += [(alg.y, alg.y, (alg.space,) * 3, DEFAULT_KMAX, "assoc"),
                  (alg.y, mod.yw, (alg.space, alg.space, mod.space),
                   DEFAULT_KMAX, "module"),
                  (free.y, free.y, (alg.space,) * 3, DEFAULT_KMAX, "assoc")]
        cases += [(poled.y, poled.y, (alg.space,) * 3, kmax, "assoc")
                  for kmax in (DEFAULT_KMAX, 0)]
    cube = flip_cube(rng)
    cases.append((cube.y, cube.y, (cube.space,) * 3, DEFAULT_KMAX, "assoc"))
    seen = set()
    for case in cases:
        map_comparisons.clear()
        want = apply_chains.weak_associativity_items(*case)
        compared = map_comparisons.compared
        map_comparisons.clear()
        got = weak_associativity_items(*case)
        assert [(i.name, i.outcome, i.detail) for i in got.items] == [
            (i.name, i.outcome, i.detail) for i in want.items]
        assert list(map_comparisons.compared) == list(compared)
        for name, (lhs, rhs) in compared.items():
            assert [typed_entries(v) for v in map_comparisons.compared[name]] \
                == [typed_entries(lhs), typed_entries(rhs)], name
        seen |= {(i.outcome.name, i.name.partition(" ")[2])
                 for i in got.items}
    assert {("EXACT_PASS", "k=0"), ("FAIL", "k=1"), ("NO_K_FOUND", "")} <= seen


# ---------------------------------------------------------------------------
# the D-bracket compares its maps with compare_maps; the per-pair loop it
# replaces is kept here as the oracle


def d_bracket_per_pair(nva):
    """check_D_bracket as a compare on every pair, the two comparisons of
    a pair in turn: its report, and (name, key, lhs, rhs) per item."""
    rep = CheckReport("per-pair D-bracket")
    D = compute_D(nva)
    bracket = D.compose(nva.y) - nva.y.compose(D, (1,))
    ydv = nva.y.compose(D, (0,))
    deriv = nva.y.transform(lambda s: s.deriv("x"))
    compared = []
    for (v, u) in basis_tuples((nva.space, nva.space)):
        for name, lhs, rhs in (
                (f"[D,Y({v},x)]{u} == Y(D{v},x){u}",
                 bracket.column((v, u)), ydv.column((v, u))),
                (f"Y(D{v},x){u} == d/dx Y({v},x){u}",
                 ydv.column((v, u)), deriv.column((v, u)))):
            rep.compare(name, lhs, rhs)
            compared.append((name, (v, u), lhs, rhs))
    return rep, compared


def with_x_term(nva):
    """nva with x·b added to Y(b,x)b, b its last basis label: d/dx Y(b,x)b
    gains b, which Y(Db,x)b does not."""
    b = nva.space.basis[-1]
    cols = dict(nva.y.columns)
    cols[(b, b)] = nva.y.column((b, b)) + SeriesVector(
        (nva.space,), {(b,): Series.monomial("x", 1)})
    return Nva(f"{nva.name}+x", nva.space, nva.vacuum,
               SeriesMap(nva.y.domain, nva.y.codomain, cols))


@pytest.mark.parametrize("rng", [DEFAULT_RANGE, (0, 0), (-1, 1)])
def test_D_bracket_items_equal_the_per_pair_comparison(rng, map_comparisons):
    zero = total = 0
    for alg in builtin_algebras(rng).values():
        for nva in (alg, with_x_term(alg)):
            want, compared = d_bracket_per_pair(nva)
            map_comparisons.clear()
            items = check_D_bracket(nva).items
            assert [(i.name, i.outcome, i.detail) for i in items] == [
                (i.name, i.outcome, i.detail) for i in want.items], nva.name
            zero += map_comparisons.match(items, compared)
            total += len(items)
            if nva is not alg:
                failed = [i for i in items if not i.ok]
                assert failed and all(i.outcome is Outcome.FAIL
                                      and i.detail.startswith("witness ")
                                      for i in failed), nva.name
    assert 0 < zero < total


# ---------------------------------------------------------------------------
# outcomes and items are plain slotted objects


def test_outcomes_are_four_plain_instances():
    outcomes = (Outcome.EXACT_PASS, Outcome.WINDOW_PASS, Outcome.FAIL,
                Outcome.NO_K_FOUND)
    assert [(o.name, o.value, o.ok) for o in outcomes] == [
        ("EXACT_PASS", "exact-pass", True), ("WINDOW_PASS", "window-pass", True),
        ("FAIL", "fail", False), ("NO_K_FOUND", "no-k-found", False)]
    assert all(getattr(Outcome, o.name) is o for o in outcomes)
    assert len({id(o) for o in outcomes}) == 4
    assert repr(Outcome.FAIL) == "<Outcome.FAIL: 'fail'>"
    assert not hasattr(Outcome.FAIL, "__dict__")
    rep = CheckReport("verdicts")
    for kind in (Eq.EXACT, Eq.WINDOW, Eq.UNEQUAL):
        rep.verdict(str(kind), EqResult(kind))
    assert [i.outcome for i in rep.items] == list(outcomes[:3])


def test_a_check_item_has_no_dict():
    item = CheckItem("name", Outcome.EXACT_PASS, "")
    assert not hasattr(item, "__dict__") and item.ok
    with pytest.raises(AttributeError):
        item.elapsed = 0.0


def test_two_empty_vectors_share_one_exact_verdict():
    sp = Space("V", ("a",))
    first = window_equal_vec(SeriesVector.zero((sp,)), SeriesVector.zero((sp,)))
    assert first.kind is Eq.EXACT and first.witness is None
    assert window_equal_vec(SeriesVector.zero((sp,)),
                            SeriesVector.zero((sp,))) is first
