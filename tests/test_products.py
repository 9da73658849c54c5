"""Twisted tensor products: construction, properties, universal map,
extraction, and product modules."""

import collections
import hashlib
import re
from fractions import Fraction

import pytest
import sympy

from nvaw.linalg import (
    Inconsistent, SeriesMap, SeriesVector, UniqueSolution, Underdetermined,
    basis_tuples, matrix_rank,
)
from nvaw.nva import (
    DEFAULT_KMAX, Nva, NvaModule, adjoint_module, check_module, check_vacuum,
    check_weak_associativity, window_equal_vec,
)
from nvaw.products import (
    PreconditionError, ProductNva, build_ordinary_tensor, build_product_module,
    build_twisted_tensor, check_embeddings, check_homomorphism,
    check_invertible_relations, check_module_extension, check_product_nva,
    check_product_properties, check_Z2_injectivity, extract_twisting, flip_iso,
    module_hypotheses, Z2_WINDOW, pair_label, restricted_module, universal_map,
)
from nvaw.registry import (
    REGISTRY_PRODUCTS, builtin_algebras, builtin_twists, make_e1, make_e2,
    make_z2, sign_twist_z2,
)
from nvaw.series import DEFAULT_RANGE, Series
from nvaw.twist import TwistOp, check_twisting_axioms, flip_twist, with_inverse
from test_series import in_normal_form, typed_fields

from apply_chains import (
    MUTATED, commutation_sides, doubled, embeddings_chain, failures,
    homomorphism_chain, inverse_commutation_chain, inverse_skew_chain,
    product_skew_chain, substitute_sum, universal_skew_chain,
)


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


def with_columns(nva, extra):
    """nva with extra[key] added to the column key of its table."""
    cols = dict(nva.y.columns)
    for key, vec in extra.items():
        cols[key] = nva.y.column(key) + vec
    return Nva(nva.name, nva.space, nva.vacuum,
               SeriesMap(nva.y.domain, nva.y.codomain, cols))


def test_a_pole_of_u_minus_one_v_names_the_first_pair_in_order():
    # a pole in Y(u⊗1,x)(1⊗v) at (s,t) and (t,s): universal_map reads the
    # pairs in the basis order of (U, V), the extraction in the order of
    # the labels given, here U's reversed
    e2 = make_e2()
    p = build_twisted_tensor(e2, e2, flip_twist(e2, e2))
    pole = Series.monomial("x", -1)
    host = with_columns(p.nva, {
        (p.pair(u, "one"), p.pair("one", v)): SeriesVector(
            (p.space,), {(p.pair("one", "one"),): pole})
        for u, v in (("t", "s"), ("s", "t"))})
    with pytest.raises(PreconditionError) as exc:
        universal_map(p, host, p.embed_first(), p.embed_second())
    assert (exc.value.hypothesis, exc.value.where) == (
        "regularity of Y(psi1 u,x) psi2 v", ("s", "t"))
    u_labels = [p.pair(u, "one") for u in ("t", "s", "one")]
    v_labels = [p.pair("one", v) for v in ("one", "s", "t")]
    with pytest.raises(PreconditionError) as exc:
        extract_twisting(host, u_labels, v_labels)
    assert (exc.value.hypothesis, exc.value.where) == (
        "Y(u,x)v regular", ("(t,one)", "(one,s)"))


@pytest.mark.parametrize("extra,vacuum,product", [
    (Series.monomial("x", -1), "negative powers present", "pole"),
    (Series.const(1), "wrong limit", "wrong constant term"),
])
def test_a_creation_map_off_its_limit_fails_with_its_detail(
        extra, vacuum, product):
    # Y(s,x)1 gains t·x^-1 or t: the vacuum item of s fails, and so does
    # the product's regularity+(-1)-product item of each (s,v), since
    # Y_R(s⊗1,x)(1⊗v) = Y(s,x)1 ⊗ v, each with its own detail
    e2 = make_e2()
    bad = with_columns(e2, {("s", "one"): SeriesVector((e2.space,),
                                                       {("t",): extra})})
    items = {i.name: i for i in check_vacuum(bad).items}
    item = items["Y(s,x)1 regular with limit s"]
    assert (item.outcome.value, item.detail) == ("fail", vacuum)
    assert [i.name for i in items.values() if not i.ok] == [item.name]
    p = build_twisted_tensor(bad, e2, flip_twist(bad, e2), check_axioms=False)
    items = {i.name: i for i in check_product_properties(p).items
             if i.name.startswith("regularity")}
    assert {name: (i.outcome.value, i.detail) for name, i in items.items()
            if not i.ok} == {f"regularity+(-1)-product (s,{v})": (
                "fail", product) for v in e2.space.basis}


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


# SHA-256 of repr(sorted(assignment.items())), taken before the systems
# were assembled from numeric images and while every coefficient was a
# Fraction: each value is hashed as its Fraction, so the pins compare by
# value; the golden report pins verdicts only
ASSIGNMENT_SHA256 = {
    "flip:E1,E2":
        "0d966ebc50b01a44bff061120616b517a7258a67b737b7ac326744dc0cdcb9dd",
    "flip:E2,E2":
        "46f60683f2c506ab6929d16a43e92caaec052441d3a4189b353d2c5ce4f6fd47",
    "sign:Z2,Z2":
        "649e58357c66fe0a8858c24362beebb10ae8373671ad91f7f219d65360d93fd7",
}


@pytest.mark.parametrize("name", sorted(ASSIGNMENT_SHA256))
def test_extracted_assignment_is_unchanged(name):
    t = builtin_twists()[name]
    p = build_twisted_tensor(t.first, t.second, t)
    u_labels = [p.pair(a, p.second.vacuum) for a in p.first.space.basis]
    v_labels = [p.pair(p.first.vacuum, b) for b in p.second.space.basis]
    res = extract_twisting(p.nva, u_labels, v_labels)
    digest = hashlib.sha256(
        repr(sorted(by_value(res.solve.assignment).items())).encode())
    assert digest.hexdigest() == ASSIGNMENT_SHA256[name]


def by_value(coeffs):
    """The coefficients, each in normal form, as Fractions."""
    assert all(in_normal_form(c) for c in coeffs.values())
    return {k: Fraction(c) for k, c in coeffs.items()}


@pytest.mark.parametrize("name,witness", [
    ("flip:E2,E2", (("(t,s)",), (1, 1))),
    ("sign:Z2,Z2", (("(g,one)",), (2, 0))),
])
def test_a_mutated_host_gives_its_first_contradicting_equation(name, witness):
    # Y(v,x)u doubled for the last v and u: no R fits, and the witness is
    # the first equation, in block order, that contradicts those before it
    t = builtin_twists()[name]
    p = build_twisted_tensor(t.first, t.second, t)
    u_labels = [p.pair(a, p.second.vacuum) for a in p.first.space.basis]
    v_labels = [p.pair(p.first.vacuum, b) for b in p.second.space.basis]
    cols = dict(p.nva.y.columns)
    key = (v_labels[-1], u_labels[-1])
    cols[key] = cols[key].scale(2)
    bad = Nva(p.nva.name, p.nva.space, p.nva.vacuum,
              SeriesMap(p.nva.y.domain, p.nva.y.codomain, cols))
    res = extract_twisting(bad, u_labels, v_labels)
    assert res.solve == Inconsistent(witness)
    assert res.twist is None


# SHA-256 of the equation stream of extract_twisting: every row that
# solve_linear hands to _row_reduce, in order, its items sorted, and then
# the outcome of that solve; it pins the row order, the dedupe and the
# Inconsistent witness of each host, the mutated hosts doubled as above.
# The rows are those of the factored system, one shared coefficient matrix
# with a carried column per (v,u), and on the mutated hosts the rows of the
# inconsistent blocks solved again for the witness.  Every coefficient, the
# outcome's values too, is hashed as its Fraction
EQUATION_STREAM_SHA256 = {
    "flip:E1,E2":
        "b0e9e89abd71b68514421849469a579ebe48bd1194fd265c4a91409486ade3a5",
    "flip:E2,E2":
        "83ba593424b8056871edeed06337075a53a0ebbcf0aa4d6ee4ec4b2d6a76be87",
    "sign:Z2,Z2":
        "27c7557a363f3a14b90b4808d9e7598edd0a0ef03a5466a328b44ffde493d854",
    "flip:E2,E2 mutated":
        "1eb025db751655d3ccab8ad37118964142e222b8547bdb08d97452919c98817a",
    "sign:Z2,Z2 mutated":
        "fbbc6a1c41045a78bf391e7a7c8c676bb491d179a38b6dafbe32efbdf6c9a2fb",
}


@pytest.mark.parametrize("name", sorted(EQUATION_STREAM_SHA256))
def test_extraction_equation_stream_is_unchanged(name, monkeypatch):
    import nvaw.linalg as linalg
    import nvaw.products as products

    t = builtin_twists()[name.split()[0]]
    p = build_twisted_tensor(t.first, t.second, t)
    u_labels = [p.pair(a, p.second.vacuum) for a in p.first.space.basis]
    v_labels = [p.pair(p.first.vacuum, b) for b in p.second.space.basis]
    host = p.nva
    if name.endswith("mutated"):
        cols = dict(host.y.columns)
        key = (v_labels[-1], u_labels[-1])
        cols[key] = cols[key].scale(2)
        host = Nva(host.name, host.space, host.vacuum,
                   SeriesMap(host.y.domain, host.y.codomain, cols))

    digest = hashlib.sha256()
    solving = []
    row_reduce, solve = linalg._row_reduce, products.solve_linear

    def rows_in(rows, ncols):
        if solving:  # not the ranks of theta and of the Z2 report
            for row in rows:
                digest.update(repr(sorted(by_value(row).items())).encode())
        return row_reduce(rows, ncols)

    def outcome_of(blocks, unknowns):
        solving.append(True)
        try:
            out = solve(blocks, unknowns)
        finally:
            solving.pop()
        fields = {k: by_value(v) if k in ("assignment", "particular") else v
                  for k, v in vars(out).items()}
        digest.update(repr((type(out).__name__, fields)).encode())
        return out

    monkeypatch.setattr(linalg, "_row_reduce", rows_in)
    monkeypatch.setattr(products, "solve_linear", outcome_of)
    extract_twisting(host, u_labels, v_labels)
    assert digest.hexdigest() == EQUATION_STREAM_SHA256[name]


# SHA-256 of repr([(name, outcome.name, detail)]) of check_product_nva on
# (E2 ⊗ E2) ⊗ E2, taken while weak associativity still composed both sides
# triple by triple; the golden report has no host of dimension 27
TRIPLE_PRODUCT_NVA_SHA256 = (
    "3fbdc4fc30c98721d3687637b6a2b6c14e45fafad6fbcf373c9c9d317ef2d787")


def triple_product():
    """The flip (E2 ⊗ E2) ⊗ E2, a host of dimension 27."""
    a, b, c = make_e2(), make_e2(), make_e2()
    ab = build_twisted_tensor(a, b, flip_twist(a, b))
    return build_twisted_tensor(ab.nva, c, flip_twist(ab.nva, c))


def test_triple_product_report_is_unchanged():
    p = triple_product()
    items = [(i.name, i.outcome.name, i.detail)
             for i in check_product_nva(p).items]
    assert len(items) == 21285
    assert hashlib.sha256(repr(items).encode()).hexdigest() == \
        TRIPLE_PRODUCT_NVA_SHA256


def test_substitution_plans_stay_small_and_equal_fresh_ones(monkeypatch):
    """Series.substitute_sum keeps a plan per (variables, var, first,
    second), an integer row per (power, cap, signs) and the substitution of
    a unit term per (variables, var, first, second, window, exponent), and
    Series.rename a plan per (variables, *mapping items), for the life of
    the process.  After the golden sweep and the dim-27 product check they
    are few: the tables' variable layouts and the checks' substitutions and
    renames, and the powers, caps and exponents inside the tables' window.
    Each equals one made afresh."""
    from nvaw import series
    from test_golden import run_sweep

    caches = ("_PLANS", "_RENAMES", "_BINOMIAL_ROWS", "_TERMS")
    for name in caches:
        monkeypatch.setattr(series, name, {})
    run_sweep()
    p = triple_product()
    check_product_nva(p)
    plans, rows = series._PLANS, series._BINOMIAL_ROWS
    terms, renames = series._TERMS, series._RENAMES
    layouts = {key[0] for key in plans}
    assert all(set(layout) <= {"x", "x0", "x1", "x2"} for layout in layouts)
    assert 0 < len(plans) <= 3 * len(layouts)
    lo, hi = DEFAULT_RANGE
    assert 0 < len(rows) <= 4 * (hi - lo + 1)
    assert all(lo <= n <= hi and -1 <= cap <= hi for n, cap, _ in rows)
    assert all(type(m) is int for row in rows.values() for m in row)
    for key, plan in plans.items():
        assert plan == series._substitution_plan(*key)
    # one unit term per exponent inside the window, in a layout of at most
    # two variables, of each substitution planned
    assert all(key[:4] in plans and key[4] == DEFAULT_RANGE
               and all(lo <= e <= hi for e in key[5]) for key in terms)
    assert 0 < len(terms) <= len(plans) * (hi - lo + 1) ** 2
    for (variables, var, first, second, window, ex), kept in terms.items():
        fresh = substitute_sum(Series(variables, {ex: 1}, window),
                               var, first, second)
        assert typed_fields(kept) == typed_fields(fresh)
        assert all(type(m) is int for m in kept.coeffs.values())
    # the renames of the tables' variable, x -> x0, x1, x2, z or -x, in a
    # table with x or none
    assert {key[0] for key in renames} <= {(), ("x",)}
    assert 0 < len(renames) <= 2 * 5
    kept_renames = dict(renames)
    monkeypatch.setattr(series, "_RENAMES", {})
    for variables, *mapping in kept_renames:
        Series(variables, {}, None).rename(dict(mapping))
    assert series._RENAMES == kept_renames

    # substitutions of the product's table as the checks make them, with
    # the plans kept so far, and again with none kept
    y = [s for col in p.nva.y.columns.values() for s in col.entries.values()]
    factor = Series(("x1", "x2"), {(-2, 1): 1, (1, -1): 2}, DEFAULT_RANGE)
    two = [s.rename({"x": "x1"}) * factor for s in y]

    def substituted():
        return [(t.variables, list(t.coeffs.items()), t.window, t.exact)
                for t in [s.substitute_sum("x", "x1", "-x2") for s in y]
                + [s.substitute_sum("x1", "x0", "x2") for s in two]]

    cached = substituted()
    for name in caches:
        monkeypatch.setattr(series, name, {})
    assert substituted() == cached
    assert any(n < 0 for n, _, _ in series._BINOMIAL_ROWS)


def test_z2_injectivity_reports_kernel():
    z2 = make_z2()
    p = build_twisted_tensor(z2, z2, sign_twist_z2())
    rep = check_Z2_injectivity(p.nva)
    assert len(rep.items) == 1
    assert "kernel" in rep.items[0].detail


def z2_columns(host):
    """The degree-two columns as check_Z2_injectivity once built them: one
    per (u, v, x1^e1 x2^e2), the entries of f·Y(u,x1)Y(v,x2)1 for the
    monomial Series f, keyed by (label, e1, e2)."""
    y1, y2 = host.y.at("x1"), host.y.at("x2")
    hs = (host.space,) * 3
    lo, hi = Z2_WINDOW
    columns = []
    for u in host.space.basis:
        for v in host.space.basis:
            vec = SeriesVector.basis(hs, (u, v, host.vacuum))
            base = y1.apply(y2.apply(vec, (1, 2)), (0, 1))
            for e1 in range(lo, hi + 1):
                for e2 in range(lo, hi + 1):
                    f = Series.monomial("x1", e1) * Series.monomial("x2", e2)
                    columns.append({
                        (lbl,) + expt: c
                        for (lbl,), s in base.scale(f).entries.items()
                        for expt, c in s.coeffs.items()})
    return columns


def z2_dense_matrix(host):
    """The degree-two matrix, one row per (label, e1, e2) and one column per
    (u, v, x1^e1 x2^e2), dense."""
    columns = z2_columns(host)
    rowkeys = {}
    for entry in columns:
        for key in entry:
            rowkeys.setdefault(key, len(rowkeys))
    dense = [[0] * len(columns) for _ in rowkeys]
    for j, entry in enumerate(columns):
        for key, c in entry.items():
            dense[rowkeys[key]][j] = c
    return dense


def z2_counts(rep):
    (item,) = rep.items
    assert item.name == "Z2 kernel rank 0"
    return dict((k, int(n)) for k, n in
                re.findall(r"(columns|rank|kernel) (\d+)", item.detail))


@pytest.mark.parametrize("name", ["sign:Z2,Z2", "flip:E1,E2", "flip:E2,E2"])
def test_z2_rank_of_the_transpose_is_sympys_rank_of_the_dense_matrix(name):
    t = builtin_twists()[name]
    host = build_twisted_tensor(t.first, t.second, t).nva
    dense = z2_dense_matrix(host)
    counts = z2_counts(check_Z2_injectivity(host))
    assert counts["columns"] == len(dense[0])
    # sympy ranks the dense matrix itself, through its DomainMatrix
    assert counts["rank"] == sympy.Matrix(dense).to_DM().rank()
    assert counts["kernel"] == counts["columns"] - counts["rank"]


@pytest.mark.parametrize("rng", [(0, 0), (-1, 1), (-8, 8)])
def test_z2_columns_as_shifts_equal_the_monomial_products(rng):
    # every registry algebra and twisted product at the window rng; the
    # oracle multiplies by the monomial Series and ranks with matrix_rank
    hosts = dict(builtin_algebras(rng))
    for name, t in builtin_twists(rng).items():
        hosts[name] = build_twisted_tensor(t.first, t.second, t).nva
    details = {}
    for name, host in hosts.items():
        columns = z2_columns(host)
        rowkeys = {}
        rows = [{rowkeys.setdefault(key, len(rowkeys)): c
                 for key, c in entry.items()} for entry in columns]
        rank = matrix_rank(rows, len(rowkeys))
        (item,) = check_Z2_injectivity(host).items
        assert item.detail == (
            f"columns {len(columns)}, rank {rank}, kernel {len(columns) - rank}, "
            f"monomial window {Z2_WINDOW}")
        details[name] = item.detail
    if rng == (0, 0):
        # the shifts by x1^±1 and x2^±1 leave the window 0..0: clipped
        assert details["flip:E2,E2"].startswith("columns 729, rank 9, kernel 720,")


def test_z2_report_on_the_triple_product_is_unchanged():
    (item,) = check_Z2_injectivity(triple_product().nva).items
    assert item.outcome.name == "FAIL"
    assert item.detail == ("columns 6561, rank 378, kernel 6183, "
                           "monomial window (-1, 1)")


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


@pytest.mark.parametrize("rng", [(0, 0), (-1, 1), (-2, 2), DEFAULT_RANGE])
def test_product_modules_from_restricted_adjoints_at_every_window(rng):
    """Y^U(u,x1)Y^V(v,x2)w of Laurent-polynomial tables on a finite W is a
    Laurent polynomial, so a table clipped at its window is no reason to
    refuse the module: at (0, 0) the clipped x·t of Y(s,x)1 once had the
    flip E2⊗E2 refused as irregular.  Over every registry twist the module
    builds and restricts back to its factors' actions."""
    for name, t in builtin_twists(rng).items():
        p = build_twisted_tensor(t.first, t.second, t)
        adj = adjoint_module(p.nva)
        m1 = restricted_module(p, adj, "first")
        m2 = restricted_module(p, adj, "second")
        mod = build_product_module(p, m1, m2)
        rep = check_module_extension(p, mod, m1, m2)
        assert rep.ok, (rng, name, rep.summary())
        # the one false fail of truncation (ROADMAP item 7): at (-1, 1) the
        # flip E2⊗E2's module axioms lose a term of one side at the window
        failed = [(i.name, i.detail) for i in check_module(mod).failures()]
        assert failed == ([("module((s,s),(one,one),(one,one)) k=0",
                            "witness (('(t,t)',), (1, 1))")]
                          if (rng, name) == ((-1, 1), "flip:E2,E2") else []), \
            (rng, name)


def test_product_module_incompatible_actions_rejected():
    z2 = make_z2()
    p = build_twisted_tensor(z2, z2, sign_twist_z2())
    with pytest.raises(PreconditionError) as exc:
        build_product_module(p, adjoint_module(p.first),
                             adjoint_module(p.second))
    assert "module compatibility" in str(exc.value)


@pytest.mark.parametrize("u_labels, label", [
    (["zz"], "'zz'"), (["one", "one"], "'one'"), ([], "''")])
def test_extract_twisting_refuses_labels_outside_the_host_basis(
        u_labels, label):
    # an unknown, repeated or missing label is a precondition of the
    # extraction, named with the host's basis
    e2 = make_e2()
    with pytest.raises(PreconditionError) as exc:
        extract_twisting(e2, u_labels, ["one", "t"])
    assert exc.value.where == label
    assert exc.value.hypothesis == (
        "U labels are distinct labels of the host basis ('one', 's', 't')")


def test_sub_nva_not_closed_raises():
    from nvaw.products import sub_nva

    e2 = make_e2()
    with pytest.raises(PreconditionError):
        sub_nva(e2, "bad", ("one", "s"), "one")  # Y(s,x)1 hits t


def test_extraction_builds_and_solves_the_full_system_once(monkeypatch):
    import nvaw.products as products

    real = products.solve_linear
    calls = []

    def vacuum_solve_left_open(blocks, unknowns):
        calls.append(len(calls))
        if len(calls) == 1:  # the system at w = vacuum
            return Underdetermined(0, list(unknowns), {})
        return real(blocks, unknowns)

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


# ---------------------------------------------------------------------------
# an x-dependent twist: R(x)(s⊗s) = s⊗s - s⊗t + t⊗s + x t⊗t on E2⊗E2, the
# flip on every other column; its inverse is a polynomial of degree one


def x_dependent_twist():
    e2 = make_e2()
    flip = flip_twist(e2, e2).table
    cols = dict(flip.columns)
    cols[("s", "s")] = SeriesVector(flip.codomain, {
        (a, b): Series(("x",), {(e,): c}, DEFAULT_RANGE)
        for (a, b, e, c) in (("s", "s", 0, 1), ("s", "t", 0, -1),
                             ("t", "s", 0, 1), ("t", "t", 1, 1))})
    return TwistOp("x-dependent(E2,E2)", e2, e2,
                   SeriesMap(flip.domain, flip.codomain, cols))


def outcomes(rep):
    return dict(collections.Counter(item.outcome.name for item in rep.items))


def test_x_dependent_twist_is_exact_and_so_is_its_inverse():
    t = x_dependent_twist()
    assert outcomes(check_twisting_axioms(t)) == {"EXACT_PASS": 60}
    inverse = with_inverse(t).inverse
    assert all(s.exact for col in inverse.columns.values()
               for s in col.entries.values())
    assert inverse.column(("s", "s")).get(("t", "t")).coeff((1,)) == -1


def test_x_dependent_twist_invertible_relations_are_exact():
    p = build_twisted_tensor(make_e2(), make_e2(), x_dependent_twist())
    assert outcomes(check_invertible_relations(p)) == {"EXACT_PASS": 171}


def test_module_hypotheses_commute_through_the_inverse_at_x1_minus_x2():
    t = x_dependent_twist()
    p = build_twisted_tensor(make_e2(), make_e2(), t)
    adj = adjoint_module(p.nva)
    m1 = restricted_module(p, adj, "first")
    m2 = restricted_module(p, adj, "second")
    rep = module_hypotheses(m1, m2, with_inverse(t), DEFAULT_KMAX)
    # with R^{-1}(x2-x1), inverse-commutation(s,s;(one,one)) failed
    assert outcomes(rep) == {"EXACT_PASS": 162}


def apply_chain_table(first, second, twist):
    """build_twisted_tensor's table as it was built: R23(-x), then Y_V, then
    Y_U applied to each basis vector of U⊗V⊗U⊗V."""
    spaces = (first.space, second.space) * 2
    r_neg = twist.table.at("-x")
    cols = {}
    for key in basis_tuples(spaces):
        vec = r_neg.apply(SeriesVector.basis(spaces, key), (1, 2))
        vec = first.y.apply(second.y.apply(vec, (2, 3)), (0, 1))
        cols[(pair_label(*key[:2]), pair_label(*key[2:]))] = vec
    return cols


@pytest.mark.parametrize("rng", [DEFAULT_RANGE, (0, 0), (-1, 1)])
def test_composed_product_table_equals_the_apply_chains(rng):
    for name, t in sorted(builtin_twists(rng).items()):
        table = build_twisted_tensor(t.first, t.second, t).nva.y
        want = apply_chain_table(t.first, t.second, t)
        assert list(table.columns) == [k for k, v in want.items()
                                       if not v.is_zero()], name
        for key, col in table.columns.items():
            assert [(k, s.variables, s.coeffs, s.window, s.exact)
                    for k, s in col.entries.items()] == [
                ((pair_label(a, b),), s.variables, s.coeffs, s.window, s.exact)
                for (a, b), s in want[key].entries.items()], (name, key)


def test_a_mutated_factor_makes_the_product_fail():
    # Y(t,x)1 = 2t instead of t.  Weak associativity of E2 at (t, one, one)
    # then compares Y(t,x0+x2)Y(one,x2)1 = 2t with Y(Y(t,x0)1,x2)1 = 4t.
    # u ↦ u⊗1 carries that triple into the product, where it must fail as
    # well: a side that lost its column would pass there as 0 == 0.
    e2 = make_e2()
    cols = dict(e2.y.columns)
    cols[("t", "one")] = cols[("t", "one")].scale(2)
    bad = Nva("E2bad", e2.space, e2.vacuum,
              SeriesMap(e2.y.domain, e2.y.codomain, cols))
    assert ("assoc(t,one,one) k=0", "witness (('t',), (0, 0))") in [
        (i.name, i.detail) for i in check_weak_associativity(bad).failures()]
    other = make_e2()
    p = build_twisted_tensor(bad, other, flip_twist(bad, other))
    failures = [i.name for i in check_product_nva(p).failures()]
    assert "assoc((t,one),(one,one),(one,one)) k=0" in failures


# ---------------------------------------------------------------------------
# each side is one composed map; the apply chains it replaced are the
# oracle (apply_chains.py)


@pytest.mark.parametrize("rng", [DEFAULT_RANGE, (0, 0), (-1, 1)])
def test_composed_product_sides_equal_the_apply_chains(rng, map_comparisons,
                                                        k_searches):
    zero = total = 0
    for name, t in sorted(builtin_twists(rng).items()):
        p = build_twisted_tensor(t.first, t.second, t)
        twist = with_inverse(t)
        adj = adjoint_module(p.nva)
        m_u = restricted_module(p, adj, "first")
        m_v = restricted_module(p, adj, "second")
        for check, want in (
                (lambda: check_embeddings(p), embeddings_chain(p)),
                (lambda: check_product_properties(p), product_skew_chain(p)),
                (lambda: check_invertible_relations(p), [
                    *inverse_skew_chain(p), *inverse_commutation_chain(
                        m_u, m_v, twist, "commutation ")]),
                (lambda: check_homomorphism(p.first, p.nva, p.embed_first()),
                 homomorphism_chain(p.first, p.nva, p.embed_first()))):
            map_comparisons.clear()
            items = check().items
            want = list(want)
            zero += map_comparisons.match(items, want)
            total += len(want)
        k_searches.calls.clear()
        items = [i for i in check_invertible_relations(p).items
                 if i.name.startswith("k-witnessed")]
        zero += k_searches.match(items, list(commutation_sides(
            m_u, m_v, twist, "k-witnessed commutation")), DEFAULT_KMAX)

        map_comparisons.clear()
        universal_map(p, p.nva, p.embed_first(), p.embed_second())
        want = list(universal_skew_chain(p, p.nva, p.embed_first(),
                                         p.embed_second()))
        zero += map_comparisons.match(None, want)
    assert 0 < zero < total


def test_a_mutated_product_fails_as_it_did_with_the_apply_chains():
    t = builtin_twists()["flip:E2,E2"]
    p = build_twisted_tensor(t.first, t.second, t)
    y = doubled(p.nva.y, ("(s,one)", "(one,one)"))
    bad = ProductNva(Nva(p.nva.name, p.space, p.nva.vacuum, y),
                     p.first, p.second, t)
    rep = check_product_nva(bad)
    for part in (check_embeddings(bad), check_product_properties(bad),
                 check_invertible_relations(bad)):
        rep.extend(part)
    assert failures(rep) == MUTATED[
        "product-props flip:E2,E2 table ((s,one),(one,one)) doubled"]
    hom = check_homomorphism(p.first, p.nva, doubled(p.embed_first(), ("s",)))
    assert failures(hom) == MUTATED["hom flip:E2,E2 embed_first (s,) doubled"]
    twisted = TwistOp("mutated", t.first, t.second, doubled(t.table, ("s", "s")))
    with pytest.raises(PreconditionError) as err:
        universal_map(build_twisted_tensor(t.first, t.second, twisted,
                                           check_axioms=False),
                      p.nva, p.embed_first(), p.embed_second())
    assert [err.value.hypothesis, list(err.value.where)] == MUTATED[
        "universal_map flip:E2,E2 twist (s,s) doubled"]
