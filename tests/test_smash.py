"""Smash products: coalgebra/bialgebra axioms, module- and comodule-algebra
structures, the induced twisting operator, and the product construction."""

import dataclasses

import pytest

from nvaw.linalg import SeriesMap, SeriesVector
from nvaw.nva import Nva, window_equal_vec
from nvaw.products import (
    PreconditionError, build_ordinary_tensor, build_twisted_tensor,
)
from nvaw.registry import (
    builtin_smash, make_z2, sign_twist_z2, trivial_smash_datum,
    z2_smash_datum,
)
from nvaw.smash import (
    CoalgebraData, build_smash, check_coalgebra, check_comodule_algebra,
    check_module_algebra, check_smash_datum, check_vertex_bialgebra,
    smash_as_twist,
)


def registry_data():
    return sorted(builtin_smash().items())


@pytest.mark.parametrize("name,d", registry_data(),
                         ids=[n for n, _ in registry_data()])
def test_registry_data_pass_full_suite(name, d):
    rep = check_smash_datum(d)
    assert rep.ok, rep.summary()


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

    def one_column_dropped(u, v, rng, check_axioms=True):
        p = real(u, v, rng, check_axioms)
        y = p.nva.y
        dropped.append(max(y.columns))
        cols = {k: c for k, c in y.columns.items() if k != dropped[-1]}
        nva = Nva(p.nva.name, p.nva.space, p.nva.vacuum,
                  SeriesMap(y.domain, y.codomain, cols))
        return dataclasses.replace(p, nva=nva)

    monkeypatch.setattr(smash_mod, "build_smash", one_column_dropped)
    d = z2_smash_datum()
    _, rep = smash_as_twist(d.action, d.coaction)
    assert [i.name for i in rep.failures()] == [
        f"table agreement {dropped[0]}"]
