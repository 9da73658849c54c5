"""A report holds each run of 0 == 0 identities as one entry.

The per-identity emission it replaces, one CheckItem per identity, is kept
here as the oracle: every check run both ways yields the same items in the
same order, and the same length, verdict, exactness and failures.
"""

import tracemalloc

import pytest

from nvaw import nva
from nvaw.linalg import SeriesMap, basis_tuples
from nvaw.nva import (
    DEFAULT_KMAX, CheckItem, CheckReport, Nva, Outcome, adjoint_module,
    check_D_bracket, check_module, check_weak_associativity, pole_order,
)
from nvaw.products import (
    build_ordinary_tensor, build_twisted_tensor, check_product_nva,
)
from nvaw.registry import builtin_algebras, builtin_twists, make_e2
from nvaw.series import DEFAULT_RANGE, Q, Series
from nvaw.twist import check_twisting_axioms, flip_twist

from test_nva import pole_algebra
from test_twist import mutated


def per_identity_items(y, yw, spaces, kmax, prefix):
    """nva.weak_associativity_items as it was before runs: one item per
    triple, a 0 == 0 triple added as an exact-pass item of its own."""
    rep = CheckReport("weak associativity")
    yx1, yx2, yx0 = yw.at("x1"), yw.at("x2"), y.at("x0")
    lhs_map = yx1.compose(yx2, (1,))
    rhs_map = yx2.compose(yx0, (0,))
    live = {}
    for key in lhs_map.columns.keys() | rhs_map.columns.keys():
        live.setdefault(key[:2], set()).add(key[2])
    for (u, v) in basis_tuples(spaces[:2]):
        at = f"{prefix}({u},{v},"
        row = live.get((u, v), ())
        for w in spaces[2].basis:
            if w not in row:
                rep.add(f"{at}{w}) k=0", Outcome.EXACT_PASS)
                continue
            key = (u, v, w)
            lhs12 = lhs_map.column(key)
            k = pole_order(lhs12, "x1")
            if k > kmax:
                rep.add(f"{at}{w})", Outcome.NO_K_FOUND,
                        f"pole order exceeds kmax={kmax}")
                continue
            rhs = rhs_map.column(key)
            if k:
                xk = Series.monomial("x1", k)
                lhs12 = lhs12.scale(xk)
                rhs = rhs.scale(xk.substitute_sum("x1", "x0", "x2"))
            lhs = lhs12.transform(lambda s: s.substitute_sum(
                "x1", "x0", "x2").align(("x0", "x2"), s.window))
            rep.compare(f"{at}{w}) k={k}", lhs,
                        rhs.transform(lambda s: s.align(("x0", "x2"), s.window)))
    return rep


def compare_maps_per_key(self, items):
    """CheckReport.compare_maps as it was before runs: one item per key."""
    ok = True
    for name, key, lhs, rhs in items:
        if key in lhs.columns or key in rhs.columns:
            ok = bool(self.compare(name, lhs.column(key), rhs.column(key))) and ok
        else:
            self.add(name, Outcome.EXACT_PASS)
    return ok


@pytest.fixture
def per_identity(monkeypatch):
    """per_identity(check, *args): the report of check(*args) emitted one
    item per identity, every entry of it a CheckItem."""
    def run(check, *args):
        with monkeypatch.context() as m:
            m.setattr(nva, "weak_associativity_items", per_identity_items)
            m.setattr(CheckReport, "compare_maps", compare_maps_per_key)
            rep = check(*args)
        assert all(type(e) is CheckItem for e in rep._entries)
        return rep
    return run


def triples(items):
    return [(i.name, i.outcome, i.detail) for i in items]


def assert_expands_to(rep, want):
    """rep's items are want's, and rep reads its length, verdict,
    exactness and failures as the expanded list gives them.  Returns the
    number of items rep holds in runs."""
    items = list(want.items)
    assert triples(rep.items) == triples(items)
    assert len(rep.items) == len(items)
    assert rep.ok == all(i.ok for i in items)
    assert rep.exact == all(i.outcome is Outcome.EXACT_PASS for i in items)
    assert triples(rep.failures()) == triples(i for i in items if not i.ok)
    for index in (0, len(items) // 2, -1):
        assert triples([rep.items[index]]) == triples([items[index]])
    return sum(len(e[1]) for e in rep._entries if type(e) is tuple)


def flip_square():
    a, b = make_e2(), make_e2()
    return build_twisted_tensor(a, b, flip_twist(a, b))


def triple_product():
    ab = flip_square().nva
    c = make_e2()
    return build_twisted_tensor(ab, c, flip_twist(ab, c))


@pytest.mark.parametrize("rng", [DEFAULT_RANGE, (0, 0)])
def test_every_registry_algebra_expands_to_its_items(rng, per_identity):
    held = 0
    for alg in builtin_algebras(rng).values():
        for check in (check_weak_associativity, check_D_bracket):
            held += assert_expands_to(check(alg), per_identity(check, alg))
        mod = adjoint_module(alg)
        rep = check_module(mod)
        assert any(i.name.startswith("module(") for i in rep.items)
        held += assert_expands_to(rep, per_identity(check_module, mod))
    assert held


def test_the_dim_27_host_expands_to_its_items(per_identity):
    p = triple_product()
    rep = check_product_nva(p)
    assert len(rep.items) == 21285
    assert assert_expands_to(rep, per_identity(check_product_nva, p)) > 19000


def between_runs(rep, outcome):
    """The number of entries of the outcome with a run on either side."""
    kinds = [type(e) is tuple or e.outcome for e in rep._entries]
    return sum(kinds[i - 1] is True and kinds[i + 1] is True
               for i in range(1, len(kinds) - 1) if kinds[i] is outcome)


@pytest.mark.parametrize("kmax", [0, 1])
def test_no_k_found_items_sit_between_runs(kmax, per_identity):
    # the poles of pole_algebra() in a product with E2: rows of nine w,
    # most of them 0 == 0
    alg = build_ordinary_tensor(pole_algebra(), make_e2()).nva
    rep = check_weak_associativity(alg, kmax)
    assert between_runs(rep, Outcome.NO_K_FOUND)
    assert assert_expands_to(
        rep, per_identity(check_weak_associativity, alg, kmax))


def test_a_fail_witness_keeps_its_position(per_identity):
    # (E2⊗E2)⊗E2 with the column of one pair of non-vacuum labels doubled
    host = triple_product().nva
    key = next(k for k in host.y.columns if host.vacuum not in k)
    cols = dict(host.y.columns)
    cols[key] = cols[key].scale(Q(2))
    bad = Nva("bad", host.space, host.vacuum,
              SeriesMap(host.y.domain, host.y.codomain, cols))
    rep = check_weak_associativity(bad)
    assert rep.failures() and all(
        i.outcome is Outcome.FAIL and i.detail.startswith("witness ")
        for i in rep.failures())
    assert between_runs(rep, Outcome.FAIL)
    assert assert_expands_to(rep, per_identity(check_weak_associativity, bad))


def test_hexagon_and_D_bracket_runs_expand_to_their_items(per_identity):
    twists = builtin_twists()
    flip = twists["flip:E2,E2"]
    held = 0
    for t in (*twists.values(),
              mutated(flip, ("s", "s"), lambda col: col.scale(Q(2)))):
        rep = check_twisting_axioms(t)
        held += assert_expands_to(rep, per_identity(check_twisting_axioms, t))
    assert held and not rep.ok
    host = flip_square().nva
    assert assert_expands_to(check_D_bracket(host),
                             per_identity(check_D_bracket, host))


def test_extend_shares_entries_and_items_are_read_only():
    a = check_weak_associativity(make_e2())
    rep = CheckReport("both")
    rep.extend(a)
    rep.extend(a)
    assert all(x is y for x, y in zip(rep._entries, a._entries * 2))
    assert len(rep.items) == 2 * len(a.items) == 54
    with pytest.raises(AttributeError):
        rep.items = []
    assert not hasattr(rep.items, "append")


# ---------------------------------------------------------------------------
# what a report costs: counts and sizes, not times


def test_the_dim_27_report_is_held_in_few_entries_and_little_memory():
    p = triple_product()
    check_product_nva(p)  # the process-wide caches, filled once
    tracemalloc.start()
    try:
        rep = check_product_nva(p)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rep.items) == 21285
    assert len(rep._entries) <= 3000
    # one CheckItem per identity retained 3.4 MB
    assert retained < 1_000_000


def test_the_D_bracket_is_one_stream_of_runs():
    # both comparisons of each pair go to one compare_maps stream, so each
    # stretch of 0 == 0 keys is one run: with a stream per comparison the
    # D-bracket took 1,458 entries and the report 2,777; the embeddings,
    # now one stream per factor, fold 46 more
    p = triple_product()
    assert len(check_D_bracket(p.nva)._entries) == 164
    assert len(check_product_nva(p)._entries) == 1437


def test_the_dim_81_flip_host_reads_every_identity():
    ab, cd = flip_square().nva, flip_square().nva
    p = build_twisted_tensor(ab, cd, flip_twist(ab, cd))
    rep = check_product_nva(p, DEFAULT_KMAX)
    outcomes = [i.outcome for i in rep.items]
    assert len(outcomes) == len(rep.items) == 544887
    assert set(outcomes) == {Outcome.EXACT_PASS}
    assert rep.ok and rep.exact
