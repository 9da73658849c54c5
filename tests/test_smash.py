"""Smash products: coalgebra/bialgebra axioms, module- and comodule-algebra
structures, the induced twisting operator, and the product construction."""

from collections import Counter

import pytest

from nvaw.linalg import SeriesMap, SeriesVector
from nvaw.nva import Nva, window_equal_vec
from nvaw.products import (
    PreconditionError, ProductNva, build_ordinary_tensor, build_twisted_tensor,
)
from nvaw.registry import (
    algebra_from_products, builtin_smash, make_e2, make_z2, sign_twist_z2,
    trivial_smash_datum, z2_smash_datum,
)
from nvaw.series import DEFAULT_RANGE, Series
from nvaw.smash import (
    CoalgebraData, ComoduleAlgebraData, ModuleAlgebraData, SmashDatum,
    build_smash, check_coalgebra, check_comodule_algebra, check_module_algebra,
    check_smash_datum, check_vertex_bialgebra, same_bialgebra, smash_as_twist,
)

from apply_chains import (
    MUTATED, bialgebra_chain, coalgebra_chain, comodule_algebra_chain, doubled,
    entries, failures, module_algebra_chain, smash_columns, smash_twist_columns,
)


def registry_data():
    return sorted(builtin_smash().items())


@pytest.mark.parametrize("name,d", registry_data(),
                         ids=[n for n, _ in registry_data()])
def test_registry_data_pass_full_suite(name, d):
    rep = check_smash_datum(d)
    assert rep.ok, rep.summary()


def test_the_suite_builds_the_product_and_its_twist_once(monkeypatch):
    import nvaw.smash as smash_mod

    built = Counter()
    real_build, real_twist = smash_mod.build_smash, smash_mod.TwistOp

    def build_smash(u, v):
        built["build_smash"] += 1
        return real_build(u, v)

    def twist_op(*args, **kwargs):
        built["R"] += 1
        return real_twist(*args, **kwargs)

    monkeypatch.setattr(smash_mod, "build_smash", build_smash)
    monkeypatch.setattr(smash_mod, "TwistOp", twist_op)
    for name, d in registry_data():
        built.clear()
        assert check_smash_datum(d).ok, name
        assert built == {"build_smash": 1, "R": 1}, name


def test_sign_smash_oracle():
    # g is odd on both sides, so Y#(g⊗g, x)(g⊗g) = -(1⊗1)
    d = z2_smash_datum()
    p = build_smash(d.action, d.coaction)
    col = p.nva.vertex(p.pair("g", "g"), p.pair("g", "g"))
    s = col.get((p.pair("one", "one"),))
    assert s.coeff(()) == -1


def test_sign_smash_matches_sign_twisted_product():
    d = z2_smash_datum()
    p = build_smash(d.action, d.coaction)
    z2 = make_z2()
    q = build_twisted_tensor(z2, z2, sign_twist_z2())
    for key, col in q.nva.y.columns.items():
        other = SeriesVector((q.nva.space,), p.nva.y.column(key).entries)
        assert window_equal_vec(col, other)


def test_trivial_smash_is_ordinary_tensor():
    # trivial action and coaction degenerate the construction to U ⊗ V
    d = trivial_smash_datum()
    p = build_smash(d.action, d.coaction)
    q = build_ordinary_tensor(d.action.module, d.coaction.comodule)
    for key, col in q.nva.y.columns.items():
        other = SeriesVector((q.nva.space,), p.nva.y.column(key).entries)
        assert window_equal_vec(col, other)


@pytest.mark.parametrize("name,d", registry_data(),
                         ids=[n for n, _ in registry_data()])
def test_smash_as_twist_table_agreement(name, d):
    tw, rep = smash_as_twist(d.action, d.coaction)
    assert rep.ok, rep.summary()
    assert any(item.name.startswith("table agreement")
               for item in rep.items)


def test_broken_coproduct_fails_counit_law():
    d = z2_smash_datum()
    h = d.coalgebra
    bad_delta = h.coproduct.transform(lambda s: s * 2)
    bad = CoalgebraData(h.algebra, bad_delta, h.counit)
    rep = check_coalgebra(bad)
    assert not rep.ok
    rep = check_vertex_bialgebra(bad)
    assert not rep.ok


def test_mismatched_bialgebras_rejected():
    sign = z2_smash_datum()
    triv = trivial_smash_datum()
    # same underlying algebra but the registry data share one coalgebra,
    # so force a mismatch by doubling the counit
    h = sign.coalgebra
    other = CoalgebraData(h.algebra, h.coproduct,
                          h.counit.transform(lambda s: s * 2))
    from nvaw.smash import ComoduleAlgebraData

    bad_coact = ComoduleAlgebraData(other, sign.coaction.comodule,
                                    sign.coaction.coaction)
    with pytest.raises(PreconditionError):
        build_smash(sign.action, bad_coact)
    with pytest.raises(PreconditionError):
        smash_as_twist(triv.action, bad_coact)


def test_same_bialgebra_compares_vacuum_vertex_operator_and_coalgebra():
    h = z2_smash_datum().coalgebra
    assert same_bialgebra(h, h)
    # built apart from equal data: one bialgebra
    assert same_bialgebra(h, CoalgebraData(make_z2(), h.coproduct, h.counit))

    def on(products, unit="one"):
        return CoalgebraData(
            algebra_from_products("Z2", ("one", "g"), unit, products),
            h.coproduct, h.counit)

    z2 = {("one", "one"): {"one": 1}, ("one", "g"): {"g": 1},
          ("g", "one"): {"g": 1}}
    # g·g = -1 instead of 1: only the vertex operator differs
    assert not same_bialgebra(h, on({**z2, ("g", "g"): {"one": -1}}))
    assert not same_bialgebra(h, on({**z2, ("g", "g"): {"one": 1}}, "g"))
    assert not same_bialgebra(h, CoalgebraData(
        h.algebra, h.coproduct, h.counit.transform(lambda s: s * 2)))


def test_module_and_comodule_suites_individually():
    d = z2_smash_datum()
    rep = check_module_algebra(d.action)
    assert rep.ok, rep.summary()
    rep = check_comodule_algebra(d.coaction)
    assert rep.ok, rep.summary()


def test_table_agreement_sees_a_column_missing_from_the_smash_table(
        monkeypatch):
    import nvaw.smash as smash_mod

    real = smash_mod.build_smash
    dropped = []

    def one_column_dropped(u, v):
        p = real(u, v)
        y = p.nva.y
        dropped.append(max(y.columns))
        cols = {k: c for k, c in y.columns.items() if k != dropped[-1]}
        nva = Nva(p.nva.name, p.nva.space, p.nva.vacuum,
                  SeriesMap(y.domain, y.codomain, cols))
        return ProductNva(nva, p.first, p.second, p.twist)

    monkeypatch.setattr(smash_mod, "build_smash", one_column_dropped)
    d = z2_smash_datum()
    _, rep = smash_as_twist(d.action, d.coaction)
    assert [i.name for i in rep.failures()] == [
        f"table agreement {dropped[0]}"]


# ---------------------------------------------------------------------------
# each side is one composed map; the apply chains it replaced are the
# oracle (apply_chains.py)


def x_dependent_datum(rng):
    """Data on E2 at rng: h of index i acts on u as (1+x)^i u, Δ(h) = h⊗h,
    ε(h) = 1 and ρ(v) = v⊗v.  Not a smash datum, but x-dependent and
    clipped at rng, as the x-free registry data are not."""
    e2 = make_e2(rng)
    sp = e2.space
    step = Series(("x",), {(0,): 1, (1,): 1}, rng)
    action = SeriesMap((sp, sp), (sp,), {
        (h, u): SeriesVector((sp,), {(u,): step ** i})
        for i, h in enumerate(sp.basis) for u in sp.basis})
    square = {(h,): SeriesVector.basis((sp, sp), (h, h)) for h in sp.basis}
    coalg = CoalgebraData(e2, SeriesMap((sp,), (sp, sp), square), SeriesMap(
        (sp,), (), {(h,): SeriesVector.basis((), ()) for h in sp.basis}))
    return SmashDatum("E2 on itself", coalg, ModuleAlgebraData(coalg, e2, action),
                      ComoduleAlgebraData(coalg, e2, SeriesMap((sp,), (sp, sp),
                                                               square)))


def oracle_data(rng):
    return registry_data() + [("x-dependent", x_dependent_datum(rng))]


@pytest.mark.parametrize("rng", [DEFAULT_RANGE, (0, 0), (-1, 1)])
def test_composed_smash_sides_equal_the_apply_chains(rng, map_comparisons):
    zero = total = 0
    for name, d in oracle_data(rng):
        for check, want in (
                (lambda: check_coalgebra(d.coalgebra),
                 coalgebra_chain(d.coalgebra)),
                (lambda: check_vertex_bialgebra(d.coalgebra),
                 bialgebra_chain(d.coalgebra)),
                (lambda: check_module_algebra(d.action),
                 module_algebra_chain(d.action)),
                (lambda: check_comodule_algebra(d.coaction),
                 comodule_algebra_chain(d.coaction))):
            map_comparisons.clear()
            items = check().items
            want = list(want)
            zero += map_comparisons.match(items, want)
            total += len(want)
    assert 0 < zero < total


@pytest.mark.parametrize("rng", [DEFAULT_RANGE, (0, 0), (-1, 1)])
def test_composed_smash_tables_equal_the_apply_chains(rng):
    for name, d in oracle_data(rng):
        p = build_smash(d.action, d.coaction)
        for table, want in ((p.twist.table,
                             smash_twist_columns(d.action, d.coaction)),
                            (p.nva.y, smash_columns(d.action, d.coaction))):
            assert table.columns.keys() <= want.keys(), name
            for key, col in want.items():
                assert entries(table.column(key)) == entries(
                    SeriesVector(table.codomain, col)), name


def mutated_datum(d, part, key):
    """d with the column at key of its coproduct, action or coaction
    doubled, the action and the coaction over one bialgebra."""
    c = d.coalgebra
    coalg = CoalgebraData(c.algebra, doubled(c.coproduct, key)
                          if part == "coproduct" else c.coproduct, c.counit)
    act = ModuleAlgebraData(coalg, d.action.module, doubled(
        d.action.action, key) if part == "action" else d.action.action)
    coact = ComoduleAlgebraData(coalg, d.coaction.comodule, doubled(
        d.coaction.coaction, key) if part == "coaction" else d.coaction.coaction)
    return SmashDatum(f"{d.name} {part}", coalg, act, coact)


@pytest.mark.parametrize("part,key", [("coproduct", ("g",)),
                                      ("action", ("g", "g")),
                                      ("coaction", ("g",))])
def test_a_mutated_datum_fails_as_it_did_with_the_apply_chains(part, key):
    d = mutated_datum(z2_smash_datum(), part, key)
    assert failures(check_smash_datum(d)) == MUTATED[
        f"smash z2-sign {part} {key} doubled"]
