"""solve_linear takes the system its callers state: blocks (targets,
images), each block's images shared by a target per right-hand side c,
and a name per (c, k).  It eliminates the images' one matrix once, the
targets carried as right-hand sides.  The oracle is the solve that
eliminated every equation of every block in one system, kept here as it
was; it is fed each stated system with the images renamed to the
unknowns of each (c, k), c by c in the order of the unknowns.  The
outcome must be the same, field by field."""

import importlib.util
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nvaw.linalg as linalg
import nvaw.products as products
from nvaw.linalg import (
    Inconsistent, SeriesMap, SeriesVector, Space, UniqueSolution,
    Underdetermined, _row_reduce, solve_linear,
)
from nvaw.nva import Nva
from nvaw.products import EXP_RANGE, build_twisted_tensor, extract_twisting
from nvaw.registry import builtin_twists, make_e2
from nvaw.series import EmptyWindow, Q, Series, _meet
from nvaw.twist import flip_twist

ROOT = Path(__file__).resolve().parent.parent


def reference_solve_linear(blocks, unknowns):
    """solve_linear as it was before the factored elimination: every
    equation of every block in one system, one right-hand side."""
    unknowns = list(unknowns)
    n = len(unknowns)
    col = {u: i for i, u in enumerate(unknowns)}
    rows = []
    tags = []
    seen = set()
    for target, images in blocks:
        # column n carries the right-hand side
        at = {key: [(n, s)] for key, s in target.entries.items()}
        for u, vec in images.items():
            j = col[u]
            for key, s in vec.entries.items():
                at.setdefault(key, []).append((j, s))
        for key, sides in at.items():
            j, s = sides[0]
            if len(sides) == 1:  # a lone side is read as it is
                eqs = {expt: {j: c} for expt, c in s.coeffs.items()}
            else:
                variables, window = s.variables, s.window
                for _, s in sides:
                    if s.variables != variables or s.window != window:
                        variables = tuple(sorted({v for _, s in sides for v in s.variables}))
                        window = reduce(_meet, (s.window for _, s in sides))
                        if window is not None and window[0] > window[1]:
                            raise EmptyWindow(f"empty window [{window[0]},{window[1]}]")
                        break
                eqs = {}
                for j, s in sides:
                    for expt, c in s._lifted(variables, window)[0].items():
                        eqs.setdefault(expt, {})[j] = c
            for expt, row in eqs.items():
                # unknown part and right-hand side, by value
                sig = frozenset(row.items())
                if sig in seen:
                    continue
                seen.add(sig)
                rows.append(row)
                tags.append((key, expt))

    pivots, rest = _row_reduce(rows, n)
    for i, leftover in rest:
        if leftover:
            return Inconsistent(tags[i])

    assignment = {unknowns[c]: pivots[c].get(n, 0) for c in sorted(pivots)}
    if len(pivots) == n:
        return UniqueSolution(assignment)
    free = [u for j, u in enumerate(unknowns) if j not in pivots]
    particular = {u: assignment.get(u, 0) for u in unknowns}
    return Underdetermined(len(pivots), free, particular)


def fields(out):
    """The outcome's type and fields, each dict as its items in order with
    the type of each value (an int or a Fraction in normal form)."""
    return type(out), {
        k: [(u, c, type(c)) for u, c in v.items()] if isinstance(v, dict)
        else v for k, v in vars(out).items()}


def renamed(blocks, unknowns):
    """The stated system as the oracle takes it: a block (target, images)
    per c and block, c by c in the order of the unknowns, each image under
    the name of its (c, k); and the names, in order."""
    return ([(targets[c], {unknowns[c, k]: image
                           for k, image in images.items()})
             for c in dict.fromkeys(c for c, _ in unknowns)
             for targets, images in blocks], list(unknowns.values()))


def solved_alike(blocks, unknowns):
    """The solve's outcome, asserted equal field by field to the oracle's,
    or both raising EmptyWindow."""
    try:
        want = reference_solve_linear(*renamed(blocks, unknowns))
    except EmptyWindow:
        with pytest.raises(EmptyWindow):
            solve_linear(blocks, unknowns)
        return None
    got = solve_linear(blocks, unknowns)
    assert fields(got) == fields(want)
    return got


@pytest.fixture
def oracle_checked(monkeypatch):
    """Every solve of extract_twisting checked against the oracle; the
    outcomes, in order."""
    outcomes = []

    def checked(blocks, unknowns):
        outcomes.append(solved_alike(blocks, unknowns))
        return outcomes[-1]

    monkeypatch.setattr(products, "solve_linear", checked)
    return outcomes


def factor_labels(p):
    u = [p.pair(a, p.second.vacuum) for a in p.first.space.basis]
    v = [p.pair(p.first.vacuum, b) for b in p.second.space.basis]
    return u, v


def mutated(host, u_labels, v_labels):
    """Y(v,x)u doubled for the last v and u: no R fits."""
    cols = dict(host.y.columns)
    key = (v_labels[-1], u_labels[-1])
    cols[key] = cols[key].scale(2)
    return Nva(host.name, host.space, host.vacuum,
               SeriesMap(host.y.domain, host.y.codomain, cols))


def bench_extraction_hosts(seed):
    spec = importlib.util.spec_from_file_location(
        "bench_inputs", ROOT / "bench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.extraction_hosts(seed)


@pytest.mark.parametrize("name", sorted(builtin_twists()))
@pytest.mark.parametrize("mutate", [False, True])
def test_registry_extractions_solve_as_the_oracle(name, mutate, oracle_checked):
    t = builtin_twists()[name]
    p = build_twisted_tensor(t.first, t.second, t)
    u_labels, v_labels = factor_labels(p)
    host = mutated(p.nva, u_labels, v_labels) if mutate else p.nva
    res = extract_twisting(host, u_labels, v_labels)
    assert len(oracle_checked) == 2
    # the mutation leaves some registry hosts with an R that fits
    assert mutate or isinstance(res.solve, UniqueSolution)


@pytest.mark.parametrize("seed", [3, 11])
def test_bench_extractions_solve_as_the_oracle(seed, oracle_checked):
    for _, p in bench_extraction_hosts(seed):
        res = extract_twisting(p.nva, *factor_labels(p))
        assert res.ok
    assert len(oracle_checked) == 6


def test_the_dim_27_extraction_solves_as_the_oracle(oracle_checked):
    a, b, c = make_e2(), make_e2(), make_e2()
    ab = build_twisted_tensor(a, b, flip_twist(a, b))
    p = build_twisted_tensor(ab.nva, c, flip_twist(ab.nva, c))
    res = extract_twisting(p.nva, *factor_labels(p))
    assert isinstance(res.solve, UniqueSolution) and len(oracle_checked) == 2


@pytest.mark.parametrize("name", sorted(builtin_twists()))
def test_each_extraction_solve_is_one_elimination_of_the_shared_matrix(
        name, monkeypatch):
    # the images of r[(v,u)->(a,b),e] do not depend on (v,u): one
    # elimination over |U||V|·5 columns, a right-hand side per (v,u)
    solving, ncols = [], []
    real_reduce, real_solve = linalg._row_reduce, products.solve_linear

    def row_reduce(rows, n):
        if solving:  # not the ranks of theta and of the Z2 report
            ncols[-1].append(n)
        return real_reduce(rows, n)

    def solve(blocks, unknowns):
        solving.append(True)
        ncols.append([])
        try:
            return real_solve(blocks, unknowns)
        finally:
            solving.pop()

    monkeypatch.setattr(linalg, "_row_reduce", row_reduce)
    monkeypatch.setattr(products, "solve_linear", solve)
    t = builtin_twists()[name]
    p = build_twisted_tensor(t.first, t.second, t)
    u_labels, v_labels = factor_labels(p)
    assert extract_twisting(p.nva, u_labels, v_labels).ok
    assert ncols == [[len(u_labels) * len(v_labels) * 5]] * 2


@pytest.mark.parametrize("name", sorted(builtin_twists()))
def test_each_extraction_solve_takes_a_block_per_w_over_its_shared_images(
        name, monkeypatch):
    # the vacuum solve one block, the full solve one per host basis vector;
    # a block's images are keyed by (a, b, e) alone and serve a target per
    # (v, u), and the vacuum block's images are the full solve's at w =
    # vacuum, the same dict: no copy per (v, u)
    calls, real = [], products.solve_linear

    def stated(blocks, unknowns):
        calls.append((list(blocks), unknowns))
        return real(*calls[-1])

    monkeypatch.setattr(products, "solve_linear", stated)
    t = builtin_twists()[name]
    p = build_twisted_tensor(t.first, t.second, t)
    u_labels, v_labels = factor_labels(p)
    extract_twisting(p.nva, u_labels, v_labels)
    (vacuum, unknowns), (full, again) = calls
    basis = p.nva.space.basis
    assert len(vacuum) == 1 and len(full) == len(basis)
    assert vacuum[0][1] is full[basis.index(p.nva.vacuum)][1]
    assert len({id(images) for _, images in full}) == len(basis)
    pairs = [(v, u) for v in v_labels for u in u_labels]
    keys = [(a, b, e) for a in u_labels for b in v_labels
            for e in range(EXP_RANGE[0], EXP_RANGE[1] + 1)]
    for targets, images in vacuum + full:
        assert list(targets) == pairs and images.keys() <= set(keys)
    assert again is unknowns
    assert len(unknowns) == 5 * len(u_labels) ** 2 * len(v_labels) ** 2
    assert list(unknowns) == [(c, k) for c in pairs for k in keys]


# ---------------------------------------------------------------------------
# drawn systems in the stated form


K = Space("K", ("k0", "k1", "k2"))
# every two of these windows meet, so no drawn system has an empty reading
WINDOWS = (None, (-1, 1), (-2, 2), (0, 2), (1, 3))
numbers = st.sampled_from([Q(-3, 2), -2, -1, Q(-1, 3), Q(1, 2), 1, 2, 3])


@st.composite
def series(draw):
    variables = draw(st.sampled_from(((), ("x",), ("x", "y"))))
    if not variables:
        return Series.const(draw(numbers))
    window = draw(st.sampled_from(WINDOWS))
    lo, hi = window or (-2, 2)
    exponents = st.tuples(*[st.integers(lo, hi)] * len(variables))
    return Series(variables, draw(st.dictionaries(
        exponents, numbers, min_size=1, max_size=3)), window)


vectors = st.dictionaries(st.sampled_from(K.basis), series(), max_size=3).map(
    lambda d: SeriesVector((K,), {(k,): s for k, s in d.items()}))
TARGET_KINDS = ("solution", "solution", "target-only key", "relifted",
                "drawn", "zero")


@st.composite
def target(draw, images):
    """A target for the images: sum(c * image) for drawn c, that sum with
    an entry at a key no image holds or read at other variables and
    window, a drawn vector, or zero."""
    kind = draw(st.sampled_from(TARGET_KINDS))
    if kind == "drawn":
        return draw(vectors)
    out = SeriesVector.zero((K,))
    if kind == "zero":
        return out
    for vec in images.values():
        out = out + vec.scale(draw(numbers))
    if kind == "relifted":
        window = draw(st.sampled_from(WINDOWS))
        out = out.transform(lambda s: s.align(("x", "y"), window))
    elif kind == "target-only key":
        free = [k for k in K.basis
                if all((k,) not in vec.entries for vec in images.values())]
        if free:
            out = out + SeriesVector((K,), {(draw(st.sampled_from(free)),):
                                            draw(series())})
    return out


@st.composite
def stated_systems(draw):
    """(blocks, unknowns): nblocks blocks, each with its images keyed by
    l and a target per right-hand side c; the unknown of (c, l) is
    u<c>_<l>.  Every c lists the same keys in one drawn order, keys in no
    block among them, and the c's are interleaved in a drawn order."""
    ncols, nblocks = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    nkeys, spare = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    blocks = []
    for _ in range(nblocks):
        images = draw(st.dictionaries(st.integers(0, nkeys - 1), vectors,
                                      max_size=nkeys))
        blocks.append(({c: draw(target(images)) for c in range(ncols)},
                       images))
    keys = draw(st.permutations(range(nkeys + spare)))
    left = {c: list(keys) for c in range(ncols)}
    unknowns = {}
    for c in draw(st.permutations([c for c in left for _ in left[c]])):
        k = left[c].pop(0)
        unknowns[c, k] = f"u{c}_{k}"
    return blocks, unknowns


@settings(max_examples=300, deadline=None)
@given(stated_systems())
def test_shared_systems_solve_as_the_oracle(system):
    solved_alike(*system)


def test_a_target_that_changes_the_reading_is_solved_on_its_own(monkeypatch):
    # three right-hand sides share the image x^-1 + 1 + 2x at k0, read at
    # window -2..2; column 1's target 2 + 4x is read at 0..2 there, which
    # drops the x^-1 equation, and column 2's has a key no image holds
    image = SeriesVector((K,), {("k0",): Series(
        ("x",), {(-1,): 1, (0,): 1, (1,): 2}, (-2, 2))})
    targets = {
        0: image.scale(3),
        1: SeriesVector((K,), {("k0",): Series(("x",), {(0,): 2, (1,): 4},
                                               (0, 2))}),
        2: image.scale(Q(1, 2)) + SeriesVector.basis((K,), ("k1",))}
    blocks = [(targets, {"k": image})]
    unknowns = {(g, "k"): f"u{g}" for g in targets}
    seen = []
    real = linalg._row_reduce

    def spy(rows, n):
        seen.append((n, sorted({j for row in rows for j in row if j >= n})))
        return real(rows, n)

    monkeypatch.setattr(linalg, "_row_reduce", spy)
    # column 1 on its own, then columns 0 and 2 together; column 2's
    # target-only key contradicts, and its block is solved again
    assert solved_alike(blocks, unknowns) == Inconsistent((("k1",), ()))
    assert seen == [(1, [1]), (1, [1, 2]), (3, [3])]
    seen.clear()
    targets[2] = image.scale(Q(1, 2))
    assert solved_alike(blocks, unknowns) == UniqueSolution(
        {"u0": 3, "u1": 2, "u2": Q(1, 2)})
    assert seen == [(1, [1]), (1, [1, 2])]


def test_a_system_whose_columns_list_their_keys_apart_is_refused():
    image = SeriesVector.basis((K,), ("k0",))
    blocks = [({0: image, 1: image}, {"a": image, "b": image.scale(2)})]
    # the columns interleaved, each listing a before b
    assert solve_linear(blocks, {(0, "a"): "a0", (1, "a"): "a1",
                                 (0, "b"): "b0", (1, "b"): "b1"}) == \
        Underdetermined(2, ["b0", "b1"], {"a0": 1, "a1": 1, "b0": 0, "b1": 0})
    for unknowns in (
            # the keys in another order, a key missing, a column missing
            {(0, "a"): "a0", (0, "b"): "b0", (1, "b"): "b1", (1, "a"): "a1"},
            {(0, "a"): "a0", (0, "b"): "b0", (1, "a"): "a1"},
            {(0, "a"): "a0", (0, "b"): "b0"}):
        with pytest.raises(ValueError):
            solve_linear(blocks, unknowns)
