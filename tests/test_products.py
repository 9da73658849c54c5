"""Twisted tensor products: construction, properties, universal map,
extraction, and product modules."""

import pytest

from nvaw.linalg import SeriesMap, SeriesVector, UniqueSolution, Underdetermined
from nvaw.nva import NvaModule, adjoint_module, check_module, window_equal_vec
from nvaw.products import (
    PreconditionError, build_ordinary_tensor, build_product_module,
    build_twisted_tensor, check_embeddings, check_invertible_relations,
    check_module_extension, check_product_nva, check_product_properties,
    check_Z2_injectivity, extract_twisting, flip_iso, restricted_module,
    universal_map,
)
from nvaw.registry import (
    REGISTRY_PRODUCTS, builtin_algebras, builtin_twists, make_e1, make_e2,
    make_z2, sign_twist_z2,
)
from nvaw.twist import flip_twist


def registry_products():
    algs = builtin_algebras()
    tws = builtin_twists()
    return [(algs[u], algs[v], tws[t]) for (u, v, t) in REGISTRY_PRODUCTS]


@pytest.mark.parametrize("u,v,t", registry_products(),
                         ids=[t for (_, _, t) in REGISTRY_PRODUCTS])
def test_product_carries_nva_structure(u, v, t):
    p = build_twisted_tensor(u, v, t)
    rep = check_product_nva(p)
    assert rep.ok and rep.exact, rep.summary()
    rep = check_embeddings(p)
    assert rep.ok, rep.summary()


def test_sign_product_oracle():
    z2 = make_z2()
    p = build_twisted_tensor(z2, z2, sign_twist_z2())
    col = p.nva.vertex(p.pair("g", "g"), p.pair("g", "g"))
    assert col.get((p.pair("one", "one"),)).coeff(()) == -1


@pytest.mark.parametrize("u,v,t", registry_products(),
                         ids=[t for (_, _, t) in REGISTRY_PRODUCTS])
def test_product_properties(u, v, t):
    p = build_twisted_tensor(u, v, t)
    rep = check_product_properties(p)
    assert rep.ok, rep.summary()


def test_invertible_relations_sign_product():
    z2 = make_z2()
    p = build_twisted_tensor(z2, z2, sign_twist_z2())
    rep = check_invertible_relations(p)
    assert rep.ok, rep.summary()


def test_universal_map_identity():
    z2 = make_z2()
    p = build_twisted_tensor(z2, z2, sign_twist_z2())
    psi, rep = universal_map(p, p.nva, p.embed_first(), p.embed_second())
    assert rep.ok, rep.summary()
    for lbl in p.space.basis:
        got = psi.column((lbl,))
        want = SeriesVector.basis((p.space,), (lbl,))
        assert window_equal_vec(got, want)


def test_universal_map_bad_homomorphism_is_named():
    z2 = make_z2()
    p = build_twisted_tensor(z2, z2, sign_twist_z2())
    broken = p.embed_first().scale(2)
    with pytest.raises(PreconditionError) as exc:
        universal_map(p, p.nva, broken, p.embed_second())
    assert "psi1 is a homomorphism" in str(exc.value)


def test_flip_iso_round_trip():
    z2 = make_z2()
    p = build_twisted_tensor(z2, z2, sign_twist_z2())
    rev, psi, rep = flip_iso(p)
    assert rep.ok, rep.summary()
    # the symmetric partner composes with psi to the identity on both sides
    rev2, psi2, rep2 = flip_iso(rev)
    assert rep2.ok, rep2.summary()
    assert rev2.space == p.space
    comp = psi.compose(psi2)
    for lbl in p.space.basis:
        assert window_equal_vec(comp.column((lbl,)),
                                SeriesVector.basis((p.space,), (lbl,)))
    comp2 = psi2.compose(psi.transform(lambda s: s))  # rev -> p -> rev? no:
    # psi: rev -> p, psi2: rev2(=p labels) -> rev; other side:
    other = psi2.compose(psi)  # only valid because rev2 and p share labels
    for lbl in rev.space.basis:
        assert window_equal_vec(other.column((lbl,)),
                                SeriesVector.basis((rev.space,), (lbl,)))


def test_extract_twisting_recovers_sign():
    z2 = make_z2()
    p = build_twisted_tensor(z2, z2, sign_twist_z2())
    u_labels = [p.pair("one", "one"), p.pair("g", "one")]
    v_labels = [p.pair("one", "one"), p.pair("one", "g")]
    res = extract_twisting(p.nva, u_labels, v_labels)
    assert isinstance(res.solve, UniqueSolution)
    assert res.axioms.ok and res.theta.ok
    col = res.twist.table.column((p.pair("one", "g"), p.pair("g", "one")))
    assert col.get((p.pair("g", "one"), p.pair("one", "g"))).coeff((0,)) == -1


def test_extract_twisting_flip_round_trip():
    e1, e2 = make_e1(), make_e2()
    p = build_ordinary_tensor(e1, e2)
    u_labels = [p.pair(u, "one") for u in e1.space.basis]
    v_labels = [p.pair("one", v) for v in e2.space.basis]
    res = extract_twisting(p.nva, u_labels, v_labels)
    assert isinstance(res.solve, UniqueSolution)
    assert res.axioms.ok and res.theta.ok
    # recovered table is the flip on the embedded factors
    for v in v_labels:
        for u in u_labels:
            col = res.twist.table.column((v, u))
            assert col.get((u, v)).coeff((0,)) == 1


def test_z2_injectivity_reports_kernel():
    z2 = make_z2()
    p = build_twisted_tensor(z2, z2, sign_twist_z2())
    rep = check_Z2_injectivity(p.nva)
    assert len(rep.items) == 1
    assert "kernel" in rep.items[0].detail


def test_product_module_from_restricted_adjoints():
    z2 = make_z2()
    p = build_twisted_tensor(z2, z2, sign_twist_z2())
    adj = adjoint_module(p.nva)
    m1 = restricted_module(p, adj, "first")
    m2 = restricted_module(p, adj, "second")
    mod = build_product_module(p, m1, m2)
    rep = check_module(mod)
    assert rep.ok, rep.summary()
    # reproduces the product's own adjoint table
    for key, col in p.nva.y.columns.items():
        assert window_equal_vec(col, mod.yw.column(key))
    rep = check_module_extension(p, mod, m1, m2)
    assert rep.ok, rep.summary()


def test_product_module_incompatible_actions_rejected():
    z2 = make_z2()
    p = build_twisted_tensor(z2, z2, sign_twist_z2())
    with pytest.raises(PreconditionError) as exc:
        build_product_module(p, adjoint_module(p.first),
                             adjoint_module(p.second))
    assert "module compatibility" in str(exc.value)


def test_sub_nva_not_closed_raises():
    from nvaw.products import sub_nva

    e2 = make_e2()
    with pytest.raises(PreconditionError):
        sub_nva(e2, "bad", ("one", "s"), "one")  # Y(s,x)1 hits t


def test_extraction_builds_and_solves_the_full_system_once(monkeypatch):
    import nvaw.products as products

    real = products.solve_linear
    calls = []

    def vacuum_solve_left_open(pairs, unknowns):
        calls.append(len(calls))
        if len(calls) == 1:  # the system at w = vacuum
            return Underdetermined(0, list(unknowns), {})
        return real(pairs, unknowns)

    monkeypatch.setattr(products, "solve_linear", vacuum_solve_left_open)
    z2 = make_z2()
    p = build_twisted_tensor(z2, z2, sign_twist_z2())
    u_labels = [p.pair("one", "one"), p.pair("g", "one")]
    v_labels = [p.pair("one", "one"), p.pair("one", "g")]
    res = extract_twisting(p.nva, u_labels, v_labels)
    assert len(calls) == 2
    assert isinstance(res.solve, UniqueSolution) and res.ok


def test_module_extension_sees_a_column_missing_from_a_factor_action():
    z2 = make_z2()
    p = build_twisted_tensor(z2, z2, sign_twist_z2())
    adj = adjoint_module(p.nva)
    m1 = restricted_module(p, adj, "first")
    m2 = restricted_module(p, adj, "second")
    mod = build_product_module(p, m1, m2)
    key = max(m1.yw.columns)
    cols = {k: c for k, c in m1.yw.columns.items() if k != key}
    short = NvaModule(m1.name, m1.algebra, m1.space,
                      SeriesMap(m1.yw.domain, m1.yw.codomain, cols))
    rep = check_module_extension(p, mod, short, m2)
    assert [i.name for i in rep.failures()] == [f"first restriction at {key}"]
