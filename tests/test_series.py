"""Foundation tests for exact Laurent-series arithmetic.

The randomized blocks run well over a thousand cases in total: ring laws,
Taylor-substitution consistency, and binomial identities, all with exact
rational arithmetic.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nvaw.series import (
    DEFAULT_RANGE, EmptyWindow, Eq, Q, Series, SeriesError, _meet, binom,
    format_series, parse_series, window_equal,
)

RNG = DEFAULT_RANGE


def mono(var, k, c=1):
    return Series((var,), {(k,): Q(c)}, RNG)


# ---------------------------------------------------------------------------
# deterministic behaviour


def test_const_and_monomial():
    s = mono("x", 2, 3) + Series.const(5)
    assert s.coeff((2,)) == 3
    assert s.coeff((0,)) == 5
    assert s.coeff((1,)) == 0


def test_multiplication_merges_windows():
    a = mono("x", -1)
    b = mono("x", 1) + Series.const(1)
    prod = a * b
    assert prod.coeff((0,)) == 1
    assert prod.coeff((-1,)) == 1


def test_window_clipping_drops_exact_flag():
    w = (-2, 2)
    s = Series(("x",), {(5,): Q(1)}, w)
    assert not s.exact
    assert s.coeffs == {}


def test_window_is_one_range_that_may_not_be_empty():
    s = Series(("x1", "x2"), {(1, -1): Q(1), (3, 0): Q(1)}, (-2, 2))
    assert s.window == (-2, 2) and s.coeffs == {(1, -1): 1} and not s.exact
    assert Series.const(1).window is None
    assert (s * Series.const(2)).window == (-2, 2)
    assert (s + Series(("x1",), {(0,): 1}, (-1, 5))).window == (-1, 2)
    with pytest.raises(EmptyWindow):
        Series(("x",), {}, (3, 2))
    with pytest.raises(EmptyWindow):
        Series(("x",), {(0,): 1}, (-3, -1)) + Series(("x",), {(0,): 1}, (1, 3))


def test_deriv():
    s = mono("x", 3) + mono("x", -2)
    d = s.deriv("x")
    assert d.coeff((2,)) == 3
    assert d.coeff((-3,)) == -2


def test_extract_and_diagonal():
    s = mono("x", 1) * mono("y", 2)
    assert s.extract("x", 1).coeff((2,)) == 1
    assert s.rename({"y": "x"}).coeff((3,)) == 1


def test_substitute_sum_positive_power():
    # (x)^2 with x -> x0+x2: x0^2 + 2 x0 x2 + x2^2, exact
    s = mono("x", 2)
    out = s.substitute_sum("x", "x0", "x2")
    assert out.exact
    assert out.coeff((2, 0)) == 1 and out.coeff((1, 1)) == 2
    assert out.coeff((0, 2)) == 1


def test_substitute_sum_negative_power_truncates():
    s = mono("x", -1)
    out = s.substitute_sum("x", "x1", "x2")
    # geometric series in x2/x1, inexact (truncated at the window)
    assert not out.exact
    assert out.coeff((-1, 0)) == 1
    assert out.coeff((-2, 1)) == -1


def test_substitute_sum_signs():
    # x -> x1 - x2 on x^1
    s = mono("x", 1)
    out = s.substitute_sum("x", "x1", "-x2")
    assert out.coeff((1, 0)) == 1 and out.coeff((0, 1)) == -1


def test_negate_var():
    s = mono("x", 3) + mono("x", 2)
    out = s.rename({"x": "-x"})
    assert out.coeff((3,)) == -1 and out.coeff((2,)) == 1


def test_parse_format_roundtrip():
    s = parse_series("1 + 2@(1) + -3/2@(-2)", ("x",))
    assert s.coeff((1,)) == 2 and s.coeff((-2,)) == Fraction(-3, 2)
    assert parse_series(format_series(s), ("x",)).coeffs == s.coeffs


def test_window_equal_certificates():
    a = mono("x", 1)
    assert window_equal(a, a).kind is Eq.EXACT
    clipped = Series(("x",), dict(a.coeffs), a.window, False)
    assert window_equal(a, clipped).kind is Eq.WINDOW
    assert window_equal(a, a + Series.const(1)).kind is Eq.UNEQUAL


# ---------------------------------------------------------------------------
# randomized: ring laws


coeffs = st.builds(Fraction,
                   st.integers(min_value=-30, max_value=30),
                   st.integers(min_value=1, max_value=8))
exponents = st.integers(min_value=-3, max_value=3)


@st.composite
def series_1v(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    c = {(draw(exponents),): Fraction(draw(coeffs)) for _ in range(n)}
    return Series(("x",), c, RNG)


@settings(max_examples=400, deadline=None)
@given(series_1v(), series_1v(), series_1v())
def test_ring_laws(a, b, c):
    assert window_equal((a + b) + c, a + (b + c)).kind is Eq.EXACT
    assert window_equal(a + b, b + a).kind is Eq.EXACT
    assert window_equal(a * b, b * a).kind is Eq.EXACT
    assert window_equal(a * (b + c), a * b + a * c).kind is Eq.EXACT
    assert window_equal(a - a, Series.zero()).kind is Eq.EXACT
    one = Series(("x",), {(0,): Q(1)}, a.window)
    assert window_equal(a * one, a).kind is Eq.EXACT


@st.composite
def poly_1v(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    c = {(draw(st.integers(min_value=0, max_value=4)),): Fraction(draw(coeffs))
         for _ in range(n)}
    return Series(("x",), c, RNG)


@settings(max_examples=350, deadline=None)
@given(poly_1v(), poly_1v())
def test_taylor_substitution_is_ring_hom(a, b):
    """x -> x0+x2 on polynomials is exact and multiplicative/additive."""
    sub = lambda s: s.substitute_sum("x", "x0", "x2")
    assert sub(a).exact and sub(b).exact
    assert window_equal(sub(a * b), sub(a) * sub(b)).kind is Eq.EXACT
    assert window_equal(sub(a + b), sub(a) + sub(b)).kind is Eq.EXACT


@settings(max_examples=350, deadline=None)
@given(poly_1v())
def test_taylor_substitution_zero_consistency(a):
    """Setting the first summand of x0+x2 to zero recovers the original."""
    sub = a.substitute_sum("x", "x0", "x2")
    back = sub.extract("x0", 0).rename({"x2": "x"})
    assert window_equal(back, a).kind is Eq.EXACT


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=-8, max_value=8),
       st.integers(min_value=0, max_value=8))
def test_binomial_identities(n, k):
    assert binom(n, 0) == 1
    if k >= 1:
        # Pascal rule, valid for negative upper index too
        assert binom(n, k) == binom(n - 1, k) + binom(n - 1, k - 1)
    if n < 0:
        assert binom(n, k) == (-1) ** k * binom(-n + k - 1, k)
    if 0 <= n:
        import math
        assert binom(n, k) == (math.comb(n, k) if k <= n else 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-4, max_value=4), st.integers(min_value=0, max_value=3))
def test_substitution_matches_binomial_theorem(n, k):
    """Coefficient of x0^(n-j) x2^j in (x0+x2)^n is binom(n,j)."""
    s = mono("x", n)
    out = s.substitute_sum("x", "x0", "x2")
    assert out.coeff((n - k, k)) == binom(n, k)


# ---------------------------------------------------------------------------
# sympy as the oracle for substitution and renaming

SYMBOLS = {name: sympy.Symbol(name) for name in ("x", "x1", "x2")}


def to_sympy(s):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(SYMBOLS[v] ** e for v, e in zip(s.variables, ex)))
        for ex, c in s.coeffs.items()))


def signed_symbol(name):
    return -SYMBOLS[name[1:]] if name.startswith("-") else SYMBOLS[name]


def laurent_coeffs(expr, variables):
    """{exponent tuple: coefficient} of a Laurent polynomial in sympy."""
    out = {}
    for term in sympy.Add.make_args(sympy.expand(expr)):
        c, rest = term.as_coeff_Mul()
        if not c:
            continue
        powers = rest.as_powers_dict()
        ex = tuple(int(powers.get(SYMBOLS[v], 0)) for v in variables)
        out[ex] = out.get(ex, 0) + Fraction(int(c.p), int(c.q))
    return {ex: c for ex, c in out.items() if c}


@st.composite
def laurent(draw, variables, lo, hi, window):
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(lo, hi)] * len(variables)), coeffs,
        max_size=4))
    return Series(variables, terms, window)


@st.composite
def laurent_x(draw):
    """A Laurent polynomial in x with every exponent inside its window, a
    window holding 0 and not always symmetric."""
    lo, hi = draw(st.integers(-5, 0)), draw(st.integers(0, 5))
    return draw(laurent(("x",), lo, hi, (lo, hi)))


@settings(max_examples=60, deadline=None)
@given(laurent_x(), st.sampled_from(["x1", "-x1"]),
       st.sampled_from(["x2", "-x2"]))
def test_substitute_sum_matches_sympy_inside_the_window(s, first, second):
    """x -> ±x1 ± x2, expanded in nonnegative powers of x2, agrees with
    sympy's series in x2 on every coefficient inside the window, and is
    exact exactly when x has no negative power."""
    lo, hi = s.window
    out = s.substitute_sum("x", first, second)
    expr = to_sympy(s).subs(SYMBOLS["x"],
                            signed_symbol(first) + signed_symbol(second))
    expansion = sympy.series(expr, SYMBOLS["x2"], 0, hi + 1).removeO()
    want = {ex: c for ex, c in laurent_coeffs(expansion, ("x1", "x2")).items()
            if lo <= min(ex) and max(ex) <= hi}
    assert out.variables == ("x1", "x2")
    assert out.coeffs == want
    assert out.exact == s.is_polynomial()


def test_substitute_sum_without_a_window_has_nowhere_to_clip():
    with pytest.raises(SeriesError):
        Series.monomial("x", -1).substitute_sum("x", "x1", "x2")
    out = Series.monomial("x", 2).substitute_sum("x", "x1", "x2")
    assert out.exact and out.window is None
    assert out.coeffs == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


windows = st.one_of(st.none(), st.tuples(st.integers(-3, 0),
                                         st.integers(0, 3)))


def window_equal_by_subtraction(a, b):
    """(kind, witness) of window_equal as the difference a - b decides it."""
    diff = a - b
    if diff.coeffs:
        return Eq.UNEQUAL, min(diff.coeffs)
    if a.exact and b.exact and diff.exact:
        return Eq.EXACT, None
    return Eq.WINDOW, None


coeffs_nonzero = coeffs.filter(bool)


@st.composite
def compared_pair(draw):
    """a and b, each with its own exact flag; b has a's variables, window
    and coefficients half of the time, and otherwise differs from it in
    its window, in one coefficient, in its variables alone, or in
    everything."""
    variables = draw(st.sampled_from([(), ("x1",), ("x1", "x2")]))
    a = draw(laurent(variables, -3, 3, draw(windows)))
    a = Series(variables, a.coeffs, a.window, a.exact and draw(st.booleans()))
    how = draw(st.sampled_from(["same", "same", "same", "same", "window",
                                "coefficient", "renamed", "other"]))
    if how == "renamed":
        renamed = {(): (), ("x1",): ("x2",), ("x1", "x2"): ("x0", "x2")}
        b = Series(renamed[variables], a.coeffs, a.window)
    elif how == "other":
        other = draw(st.sampled_from([(), ("x1",), ("x2",), ("x1", "x2")]))
        b = draw(laurent(other, -3, 3, draw(windows)))
    else:
        terms = dict(a.coeffs)
        if how == "coefficient":
            ex = (draw(st.integers(-3, 3)),) * len(variables)
            terms[ex] = terms.get(ex, 0) + draw(coeffs_nonzero)
        window = draw(windows) if how == "window" else a.window
        b = Series(variables, terms, window)
    return a, Series(b.variables, b.coeffs, b.window,
                     b.exact and draw(st.booleans()))


@settings(max_examples=400, deadline=None)
@given(compared_pair())
def test_window_equal_matches_the_subtraction(pair):
    a, b = pair
    res = window_equal(a, b)
    assert (res.kind, res.witness) == window_equal_by_subtraction(a, b)


@st.composite
def operand_pair(draw):
    """Two Laurent polynomials in x1, x2 or both, each with its own window
    (None or a small range) and its support inside the meet of the two."""
    wa, wb = draw(windows), draw(windows)
    meet = wa if wb is None else wb if wa is None else (
        max(wa[0], wb[0]), min(wa[1], wb[1]))
    lo, hi = meet or (-3, 3)
    pair = []
    for window in (wa, wb):
        variables = draw(st.sampled_from([("x1",), ("x2",), ("x1", "x2")]))
        pair.append(draw(laurent(variables, lo, hi, window)))
    return pair[0], pair[1], meet


@settings(max_examples=200, deadline=None)
@given(operand_pair(), st.sampled_from(["+", "*"]))
def test_arithmetic_matches_sympy_inside_the_meet(pair, op):
    """a + b and a * b agree with sympy on every exponent inside the meet of
    the windows, and are exact exactly when sympy's result has no term
    outside it; with both windows None, exact and equal everywhere."""
    a, b, meet = pair
    out = a + b if op == "+" else a * b
    want = laurent_coeffs(to_sympy(a) + to_sympy(b) if op == "+"
                          else to_sympy(a) * to_sympy(b), out.variables)
    inside = {ex: c for ex, c in want.items()
              if meet is None or meet[0] <= min(ex) and max(ex) <= meet[1]}
    assert out.window == meet
    assert out.variables == tuple(sorted(set(a.variables) | set(b.variables)))
    assert out.coeffs == inside
    assert out.exact == (inside == want)


@settings(max_examples=60, deadline=None)
@given(laurent_x())
def test_negating_rename_matches_sympy(s):
    out = s.rename({"x": "-x"})
    x = SYMBOLS["x"]
    assert out.exact
    assert out.coeffs == laurent_coeffs(to_sympy(s).subs(x, -x), ("x",))


@settings(max_examples=60, deadline=None)
@given(laurent(("x1", "x2"), -2, 2, (-4, 4)), st.sampled_from(["x1", "-x1"]))
def test_merging_rename_matches_sympy(s, target):
    out = s.rename({"x2": target})
    expr = to_sympy(s).subs(SYMBOLS["x2"], signed_symbol(target))
    assert out.variables == ("x1",) and out.exact
    assert out.coeffs == laurent_coeffs(expr, ("x1",))


# ---------------------------------------------------------------------------
# the product and sum lift their operands without building aligned copies;
# the definitions they replace are kept here as the oracle


def aligned_copy(s, variables, window):
    """Series.align as it was: a new Series reindexed onto the variables
    and clipped by its constructor."""
    if s.variables == variables:
        if s.window == window:
            return s
        return Series(variables, s.coeffs, window, s.exact)
    pos = [variables.index(v) for v in s.variables]
    out = {}
    for ex, c in s.coeffs.items():
        ne = [0] * len(variables)
        for p, e in zip(pos, ex):
            ne[p] = e
        out[tuple(ne)] = c
    return Series(variables, out, window, s.exact)


def align_both_then(op, a, b):
    """a + b with both operands aligned first; a * b with both lifted
    unclipped, the product clipped once."""
    variables = tuple(sorted(set(a.variables) | set(b.variables)))
    window = _meet(a.window, b.window)
    lift = window if op == "+" else None
    a, b = aligned_copy(a, variables, lift), aligned_copy(b, variables, lift)
    out = {}
    if op == "+":
        out = dict(a.coeffs)
        for ex, c in b.coeffs.items():
            out[ex] = out.get(ex, Q(0)) + c
    else:
        for ex1, c1 in a.coeffs.items():
            for ex2, c2 in b.coeffs.items():
                ex = tuple(e1 + e2 for e1, e2 in zip(ex1, ex2))
                out[ex] = out.get(ex, 0) + c1 * c2
    return Series(variables, out, window, a.exact and b.exact)


@st.composite
def window_or_none(draw):
    if draw(st.booleans()):
        return None
    lo = draw(st.integers(-3, 2))
    return (lo, draw(st.integers(lo, 3)))


@st.composite
def clipped_operand(draw):
    """Terms drawn from -4..4 in each variable, so often outside the
    operand's own window (an inexact operand) or outside the other's."""
    variables = draw(st.sampled_from([(), ("x1",), ("x2",), ("x1", "x2")]))
    return draw(laurent(variables, -4, 4, draw(window_or_none())))


def fields(s):
    return s.variables, s.coeffs, s.window, s.exact


@settings(max_examples=400, deadline=None)
@given(clipped_operand(), clipped_operand(), st.sampled_from(["+", "*"]))
def test_lifted_arithmetic_equals_align_both_then_combine(a, b, op):
    try:
        want = align_both_then(op, a, b)
    except EmptyWindow:
        with pytest.raises(EmptyWindow):
            a + b if op == "+" else a * b
        return
    got = a + b if op == "+" else a * b
    assert fields(got) == fields(want)
    variables, window = want.variables, want.window
    for s in (a, b):
        assert fields(s.align(variables, window)) == \
            fields(aligned_copy(s, variables, window))


# ---------------------------------------------------------------------------
# rename keeps the exponents of a mapping that moves none; the general loop
# it bypasses is kept here as the oracle


def rename_by_loop(s, mapping):
    """Series.rename as the general loop computes it for every mapping."""
    targets = [(t[1:], -1) if t.startswith("-") else (t, 1)
               for t in (mapping.get(v, v) for v in s.variables)]
    variables = tuple(sorted({name for name, _ in targets}))
    pos = [variables.index(name) for name, _ in targets]
    neg = [i for i, (_, sign) in enumerate(targets) if sign < 0]
    out = {}
    for ex, c in s.coeffs.items():
        ne = [0] * len(variables)
        for p, e in zip(pos, ex):
            ne[p] += e
        if sum(ex[i] for i in neg) % 2:
            c = -c
        ne = tuple(ne)
        out[ne] = out[ne] + c if ne in out else c
    return Series(variables, out, s.window, s.exact)


@st.composite
def renamed_operand(draw):
    """A series in up to three variables, windowed or not, exact or not,
    and a mapping of some of its variables to signed names: one-to-one or
    merging, keeping the variable order or changing it."""
    variables = draw(st.sampled_from(
        [(), ("x",), ("x1",), ("x1", "x2"), ("x0", "x2"), ("x0", "x1", "x2")]))
    s = draw(laurent(variables, -4, 4, draw(window_or_none())))
    s = Series(variables, s.coeffs, s.window, s.exact and draw(st.booleans()))
    names = st.sampled_from(["x", "x0", "x1", "x2", "x3"])
    mapping = {}
    for v in variables:
        if draw(st.booleans()):
            sign = draw(st.sampled_from(["", "", "-"]))
            mapping[v] = sign + draw(names)
    return s, mapping


@settings(max_examples=400, deadline=None)
@given(renamed_operand())
def test_rename_matches_the_general_loop(case):
    s, mapping = case
    assert fields(s.rename(mapping)) == fields(rename_by_loop(s, mapping))


def test_rename_keeps_the_exponents_it_does_not_move():
    s = Series(("x1", "x2"), {(1, -2): Q(3), (9, 0): Q(1)}, (-2, 2))
    assert not s.exact
    for mapping in ({"x1": "x0"}, {"x2": "x3"}, {"x1": "x0", "x2": "x1"}):
        out = s.rename(mapping)
        assert out.coeffs == s.coeffs and not out.exact
        assert out.window == s.window
    assert s.rename({"x1": "x3"}).coeffs == {(-2, 1): 3}
    assert s.rename({"x1": "-x0"}).coeffs == {(1, -2): -3}


# ---------------------------------------------------------------------------
# kernel results are built once, in normal form: sorted variables, no zero
# coefficient, every exponent inside the window, no window without a
# variable.  Each is a fixed point of the public constructor.


def assert_normal(r):
    assert fields(r) == fields(Series(r.variables, dict(r.coeffs), r.window,
                                      r.exact))


NAMES = ("x0", "x1", "x2")
subsets = st.sampled_from([(), ("x0",), ("x1",), ("x2",), ("x0", "x1"),
                           ("x0", "x2"), ("x1", "x2"), ("x0", "x1", "x2")])


@st.composite
def kernel_pair(draw):
    """Two operands in disjoint, interleaved or shared variables, with the
    same window half of the time, terms often outside either window."""
    wa = draw(window_or_none())
    wb = wa if draw(st.booleans()) else draw(window_or_none())
    a = draw(laurent(draw(subsets), -4, 4, wa))
    b = draw(laurent(draw(subsets), -4, 4, wb))
    return a, b


@settings(max_examples=400, deadline=None)
@given(kernel_pair(), st.sampled_from(["+", "-", "*"]))
def test_arithmetic_results_are_in_normal_form(pair, op):
    a, b = pair
    try:
        r = a + b if op == "+" else a - b if op == "-" else a * b
    except EmptyWindow:
        assert _meet(a.window, b.window)[0] > _meet(a.window, b.window)[1]
        return
    assert_normal(r)
    assert_normal(-a)
    if op != "-":
        assert fields(r) == fields(align_both_then(op, a, b))


@st.composite
def disjoint_pair(draw):
    """Operands with one window in variables that all sort apart: those of
    the first before those of the second, or after them."""
    window = draw(window_or_none())
    cut = draw(st.integers(0, 3))
    lower, upper = NAMES[:cut], NAMES[cut:]
    a = draw(laurent(draw(st.sampled_from([lower, lower[:1], lower[1:]])),
                     -4, 4, window))
    b = draw(laurent(draw(st.sampled_from([upper, upper[:1], upper[1:]])),
                     -4, 4, window))
    return (a, b) if draw(st.booleans()) else (b, a)


@settings(max_examples=300, deadline=None)
@given(disjoint_pair())
def test_a_product_in_disjoint_variables_is_a_placement(pair):
    a, b = pair
    r = a * b
    assert_normal(r)
    assert fields(r) == fields(align_both_then("*", a, b))
    # every term of the product is kept, under a window without 0 as well
    assert len(r.coeffs) == len(a.coeffs) * len(b.coeffs)


def test_a_product_keeps_its_terms_under_a_window_without_0():
    # lifting x1 onto (x1, x2) puts in x2^0, outside the window (1, 3);
    # only the product's exponents are clipped
    x1 = Series(("x1",), {(1,): 1}, (1, 3))
    x2 = Series(("x2",), {(1,): 1}, (1, 3))
    r = x1 * x2
    assert fields(r) == (("x1", "x2"), {(1, 1): 1}, (1, 3), True)
    assert fields(x1 * Series.const(1)) == fields(x1)
    assert fields(Series.const(1) * x1) == fields(x1)
    # under unequal windows too, where the operands are lifted in general
    y = Series(("x2",), {(2,): 3}, (2, 4))
    assert fields(x1 * y) == (("x1", "x2"), {}, (2, 3), False)
    assert fields(Series(("x1",), {(2,): 1}, (1, 3)) * y) == \
        (("x1", "x2"), {(2, 2): 3}, (2, 3), True)


# exact and inexact (clipped), under windows with 0, without it and None
SCALED = [
    Series(("x1",), {(1,): 1, (2,): Q(1, 2)}, (1, 3)),
    Series(("x1",), {(1,): 1, (5,): 2}, (1, 3)),
    Series(("x1", "x2"), {(0, -1): 3, (2, 1): -1}, (-2, 2)),
    Series(("x2",), {(-9,): 1}, (-2, 2)),
    Series.monomial("x1", 2),
    Series.const(5),
]


@pytest.mark.parametrize("k", [0, 1, Q(2, 3)])
def test_a_factor_with_no_variables_is_a_scale(k):
    assert {s.exact for s in SCALED} == {True, False}
    c = Series.const(k)
    for s in SCALED:
        assert fields(s * c) == fields(c * s) == fields(s.scale(k))


@settings(max_examples=200, deadline=None)
@given(clipped_operand(), st.sampled_from([0, Q(0), 1, -2, Q(3, 2)]))
def test_scaling_is_in_normal_form(s, c):
    r = s.scale(c)
    assert_normal(r)
    assert r.exact == s.exact and r.window == s.window
    assert (r.coeffs == {}) == (not c or not s.coeffs)


@settings(max_examples=300, deadline=None)
@given(renamed_operand())
def test_renaming_is_in_normal_form(case):
    s, mapping = case
    assert_normal(s.rename(mapping))


@settings(max_examples=300, deadline=None)
@given(clipped_operand(), st.sampled_from(NAMES + ("x3",)),
       st.integers(-4, 4))
def test_derivative_and_extraction_are_in_normal_form(s, var, k):
    assert_normal(s.deriv(var))
    assert_normal(s.extract(var, k))


def test_a_derivative_at_the_low_edge_of_the_window_is_clipped():
    s = Series(("x",), {(-2,): Q(3), (1,): Q(1)}, (-2, 2))
    d = s.deriv("x")
    assert d.coeffs == {(0,): 1} and not d.exact
    assert_normal(d)
    e = s.extract("x", 1)
    assert fields(e) == ((), {(): 1}, None, True)
    assert_normal(e)


summand_pairs = st.sampled_from([("x0", "x2"), ("x0", "-x2"), ("-x0", "x1"),
                                 ("x1", "x2"), ("x2", "x1"), ("-x1", "-x0")])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([("x1",), ("x0", "x1"), ("x1", "x2"),
                        ("x0", "x1", "x2")]),
       st.tuples(st.integers(-3, 0), st.integers(0, 3)), summand_pairs,
       st.data())
def test_substitution_is_in_normal_form(variables, window, summands, data):
    s = data.draw(laurent(variables, -4, 4, window))
    r = s.substitute_sum("x1", *summands)
    assert_normal(r)
    if any(ex[variables.index("x1")] < 0 for ex in s.coeffs):
        assert not r.exact


@pytest.mark.parametrize("n", range(-8, 9))
def test_binomials_are_integers(n):
    for k in range(9):
        b = binom(n, k)
        assert type(b) is int
        assert b == sympy.ff(n, k) / sympy.factorial(k)
