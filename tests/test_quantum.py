"""S-maps: locality, skew-symmetry, Yang-Baxter/unitarity, the full
axiom suite, extraction, induced twistings, and product S-maps."""

import pytest

from nvaw.linalg import (
    SeriesMap, SeriesVector, Space, Underdetermined, UniqueSolution,
    basis_tuples, solve_linear,
)
from nvaw.nva import DEFAULT_KMAX, CheckReport, Nva, window_equal_vec
from nvaw.products import build_twisted_tensor
from nvaw.quantum import (
    SMap, build_S_R, check_qva_axioms, check_qyb_unitarity, check_S_locality,
    check_S_skew, extract_S, smap_twist,
)
from nvaw.registry import (
    builtin_algebras, builtin_smaps, builtin_twists, identity_smap, make_e1n,
    make_e2, make_z2, sign_smap_e1, sign_twist_z2,
)
from nvaw.series import DEFAULT_RANGE, Series
from nvaw.twist import check_twisting_axioms, flip_twist

from apply_chains import (
    MUTATED, doubled, entries, failures, qva_chain, qyb_unitarity_chain,
    s_locality_sides, s_r_columns, s_skew_chain,
)


def registry_smaps():
    return sorted(builtin_smaps().items())


@pytest.mark.parametrize("name,s", registry_smaps(),
                         ids=[n for n, _ in registry_smaps()])
def test_registry_smaps_pass_full_suite(name, s):
    a = s.algebra
    rep = check_S_locality(a, s)
    assert rep.ok, rep.summary()
    rep = check_S_skew(a, s)
    assert rep.ok and rep.exact, rep.summary()
    rep = check_qyb_unitarity(s)
    assert rep.ok and rep.exact, rep.summary()
    rep = check_qva_axioms(a, s)
    assert rep.ok, rep.summary()


def test_identity_smap_fails_on_noncommutative_algebra():
    # E1n has ab != ba, so the identity S cannot witness locality and
    # skew-symmetry breaks for the same columns
    a = make_e1n()
    s = identity_smap(a)
    loc = check_S_locality(a, s)
    skew = check_S_skew(a, s)
    assert not loc.ok, loc.summary()
    assert not skew.ok, skew.summary()


def broken_and_good_pairs():
    pairs = [(s.algebra, s) for _, s in registry_smaps()]
    broken = make_e1n()
    pairs.append((broken, identity_smap(broken)))
    return pairs


def test_locality_equivalent_to_skew_on_all_instances():
    # the two axioms hold or fail together on every instance, including
    # the deliberately broken one
    for a, s in broken_and_good_pairs():
        loc = check_S_locality(a, s)
        skew = check_S_skew(a, s)
        assert loc.ok == skew.ok, (
            f"{a.name}/{s.name}: locality {loc.ok} vs skew {skew.ok}")


# rank, number of free unknowns and first free unknown of the one solve
# over every column, (v, u) = (one, one) first
EXTRACT_S_SHAPE = {
    "E1": (40, 40, "s[one,one][eps,one][-2]"),
    "E1n": (135, 270, "s[one,one][n,one][-2]"),
    "E2": (144, 261, "s[one,one][s,one][-2]"),
    "Z2": (40, 40, "s[one,one][g,one][-2]"),
}


@pytest.mark.parametrize("name", sorted(builtin_algebras()))
def test_extract_S_is_underdetermined_at_this_scale(name):
    # the defining relation Y(u,x)v = e^{xD} Y(-x) S(-x)(v⊗u) reads S only
    # through the squaring map (a,b) -> Y(a,-x)b, which has a nonzero
    # kernel on every builtin instance, so the solve cannot pin S down
    a = builtin_algebras()[name]
    ext = extract_S(a)
    assert isinstance(ext.solve, Underdetermined)
    rank, nfree, first = EXTRACT_S_SHAPE[name]
    assert (ext.solve.rank, len(ext.solve.free), ext.solve.free[0]) == \
        (rank, nfree, first)
    assert ext.smap is None
    assert not ext.ok


@pytest.mark.parametrize("name", sorted(builtin_algebras()))
def test_extract_S_solves_every_column_in_one_system(monkeypatch, name):
    # one solve_linear call of one block: the images once, keyed by
    # (a, b, e), and a target Y(u,x)v per column (v, u); |V|^2 * 5
    # unknowns per column, each column listing the images' keys in order
    import nvaw.quantum as quantum

    a, calls = builtin_algebras()[name], []

    def counted(blocks, unknowns):
        calls.append((list(blocks), unknowns))
        return solve_linear(*calls[-1])

    monkeypatch.setattr(quantum, "solve_linear", counted)
    extract_S(a)
    [([(targets, images)], unknowns)] = calls
    pairs = basis_tuples((a.space, a.space))
    assert list(targets) == pairs and len(images) == 5 * len(pairs)
    assert all(targets[v, u].entries == a.vertex(u, v).entries
               for (v, u) in pairs)
    assert len(unknowns) == len(a.space) ** 4 * 5
    assert list(unknowns) == [(c, k) for c in pairs for k in images]


@pytest.mark.parametrize("window", [None, (-2, 2)])
def test_extract_S_on_the_one_dimensional_algebra_is_the_identity(window):
    # Y(1,x)1 = 1 pins S(x)(1⊗1) = 1⊗1: the solved table is read back with
    # the window of the algebra's table, and every axiom holds
    sp = Space("T", ("one",))
    one = Nva("T", sp, "one", SeriesMap((sp, sp), (sp,), {("one", "one"):
              SeriesVector((sp,), {("one",): Series(("x",), {(0,): 1},
                                                    window)})}))
    ext = extract_S(one)
    assert isinstance(ext.solve, UniqueSolution) and ext.ok
    # the solve that was made: S(x)(1⊗1) = x^0 1⊗1
    assert ext.solve.assignment == {
        f"s[one,one][one,one][{e}]": int(e == 0) for e in range(-2, 3)}
    col, = ext.smap.table.columns.items()
    assert col[0] == ("one", "one")
    (key, entry), = col[1].entries.items()
    assert key == ("one", "one") and entry.coeffs == {(0,): 1}
    assert type(entry.coeffs[(0,)]) is int and entry.window == window


def test_smap_twist_satisfies_twisting_axioms():
    s = sign_smap_e1()
    tw = smap_twist(s)
    rep = check_twisting_axioms(tw)
    assert rep.ok, rep.summary()


def test_identity_smap_twist_is_flip():
    a = make_z2()
    tw = smap_twist(identity_smap(a))
    flip = flip_twist(a, a)
    for key, col in flip.table.columns.items():
        assert window_equal_vec(col, tw.table.column(key))


def test_build_S_R_on_sign_product():
    z2 = make_z2()
    p = build_twisted_tensor(z2, z2, sign_twist_z2())
    sU, sV = identity_smap(p.first), identity_smap(p.second)
    sR = build_S_R(p, sU, sV)
    rep = check_S_locality(p.nva, sR)
    assert rep.ok, rep.summary()
    rep = check_S_skew(p.nva, sR)
    assert rep.ok, rep.summary()
    rep = check_qyb_unitarity(sR)
    assert rep.ok, rep.summary()
    # the (g,g) column stays untouched: both sign swaps cancel
    gg = p.pair("g", "g")
    col = sR.table.column((gg, gg))
    assert col.get((gg, gg)).coeff(()) == 1


def test_build_S_R_on_flip_product_is_identity():
    e2 = make_e2()
    p = build_twisted_tensor(e2, e2, flip_twist(e2, e2))
    sR = build_S_R(p, identity_smap(p.first), identity_smap(p.second))
    ident = SeriesMap.identity((p.space, p.space))
    for key, col in ident.columns.items():
        assert window_equal_vec(col, sR.table.column(key))


def test_inverse_table_is_two_sided_inverse():
    s = sign_smap_e1()
    sp = s.algebra.space
    ident = SeriesMap.identity((sp, sp))
    for comp in (s.table.compose(s.inverse_table()),
                 s.inverse_table().compose(s.table)):
        for key, col in ident.columns.items():
            assert window_equal_vec(col, comp.column(key))


# ---------------------------------------------------------------------------
# each side is one composed map; the apply chains it replaced are the
# oracle (apply_chains.py)


def oracle_smaps(rng):
    """The registry S-maps at rng, and the identity on E1n, a Laurent table
    that is not an S-map."""
    smaps = builtin_smaps(rng)
    smaps["id:E1n"] = identity_smap(make_e1n())
    return sorted(smaps.items())


@pytest.mark.parametrize("rng", [DEFAULT_RANGE, (0, 0), (-1, 1)])
def test_composed_qva_sides_equal_the_apply_chains(rng, map_comparisons,
                                                    k_searches):
    zero = total = 0
    for name, s in oracle_smaps(rng):
        a = s.algebra
        for check, want in ((lambda: check_S_skew(a, s), s_skew_chain(a, s)),
                            (lambda: check_qyb_unitarity(s),
                             qyb_unitarity_chain(s)),
                            (lambda: check_qva_axioms(a, s), qva_chain(a, s))):
            map_comparisons.clear()
            items = check().items
            want = list(want)
            zero += map_comparisons.match(items, want)
            total += len(want)
        k_searches.calls.clear()
        zero += k_searches.match(check_S_locality(a, s).items,
                                 list(s_locality_sides(a, s)), DEFAULT_KMAX)
    assert 0 < zero < total


@pytest.mark.parametrize("rng", [DEFAULT_RANGE, (0, 0), (-1, 1)])
def test_composed_S_R_equals_the_apply_chain(rng):
    for name, t in sorted(builtin_twists(rng).items()):
        p = build_twisted_tensor(t.first, t.second, t)
        sU, sV = identity_smap(p.first), identity_smap(p.second)
        table = build_S_R(p, sU, sV).table
        want = s_r_columns(p, sU, sV)
        assert table.columns.keys() <= want.keys(), name
        for key, col in want.items():
            assert entries(table.column(key)) == entries(
                SeriesVector(table.codomain, col)), name


def test_a_mutated_smap_fails_as_it_did_with_the_apply_chains():
    s = builtin_smaps()["id:E2"]
    a = s.algebra
    bad = SMap("mutated(id(E2))", a, doubled(s.table, ("s", "one")))
    rep = CheckReport("qva")
    for part in (check_qyb_unitarity(bad), check_S_locality(a, bad),
                 check_S_skew(a, bad), check_qva_axioms(a, bad)):
        rep.extend(part)
    assert failures(rep) == MUTATED["qva id:E2 (s,one) doubled"]
