"""Foundation tests for exact Laurent-series arithmetic.

The randomized tests check the kernel operations against sympy, against the
definitions and loops the kernels replaced, and for the normal form of their
results, besides the ring laws, Taylor-substitution consistency and binomial
identities, all with exact rational arithmetic.
"""

import functools
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy import QQ
from sympy.polys.rings import ring

import apply_chains
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
# randomized.  Every strategy draws flat parameters (variables, window,
# exponent range, coefficients) and builds its Series in code, through one
# cached strategy of terms per shape.

# coefficients: the values of p/q for p in -30..30 and q in 1..8, smallest
# first, or the halves, whose sums and products meet at a few exponents and
# often come out integral, from Fraction arithmetic
COEFFS = st.sampled_from(sorted(
    {Fraction(p, q) for p in range(-30, 31) for q in range(1, 9)},
    key=lambda c: (c.denominator, abs(c), c < 0)))
NONZERO = COEFFS.filter(bool)
HALVES = st.sampled_from([Fraction(n, 2) for n in range(-4, 5) if n])
# windows: none or a small range holding 0; none or any small range; and a
# range holding 0 and not always symmetric, for series in x alone
windows = st.one_of(st.none(), st.tuples(st.integers(-3, 0),
                                         st.integers(0, 3)))
WINDOW_OR_NONE = st.one_of(st.none(), st.sampled_from(
    [(lo, hi) for lo in range(-3, 3) for hi in range(lo, 4)]))
X_WINDOWS = st.sampled_from([(lo, hi) for lo in range(-5, 1)
                             for hi in range(6)])
NAMES = ("x0", "x1", "x2")
SUBSETS = st.sampled_from([(), ("x0",), ("x1",), ("x2",), ("x0", "x1"),
                           ("x0", "x2"), ("x1", "x2"), ("x0", "x1", "x2")])


@functools.cache
def laurent(variables, window, lo, hi, values=COEFFS):
    """Series in variables under window of up to four terms (one without
    variables), every exponent in lo..hi and each coefficient from values;
    the constructor clips what lies outside the window.  A strategy built
    once for each set of arguments."""
    exponents = st.tuples(*[st.integers(lo, hi)] * len(variables))
    return st.lists(st.tuples(exponents, values),
                    max_size=4 if variables else 1).map(
        lambda terms: Series(variables, dict(terms), window))


def series_over(layouts, windows, lo, hi, values=COEFFS):
    """laurent in variables drawn from layouts under a window drawn from
    windows."""
    return st.tuples(layouts, windows).flatmap(
        lambda drawn: laurent(*drawn, lo, hi, values))


def laurent_x(values=COEFFS):
    """A Laurent polynomial in x with every exponent inside its window, a
    window holding 0 and not always symmetric."""
    return X_WINDOWS.flatmap(lambda w: laurent(("x",), w, *w, values))


# terms drawn from -4..4 in each variable, so often outside the operand's
# own window (an inexact operand) or outside another's
CLIPPED = series_over(st.sampled_from([(), ("x1",), ("x2",), ("x1", "x2")]),
                      WINDOW_OR_NONE, -4, 4)


def holds(window, ex):
    """Whether every exponent of ex lies inside window."""
    return window is None or all(window[0] <= e <= window[1] for e in ex)


@settings(max_examples=400, deadline=None)
@given(*[laurent(("x",), RNG, -3, 3)] * 3)
def test_ring_laws(a, b, c):
    assert window_equal((a + b) + c, a + (b + c)).kind is Eq.EXACT
    assert window_equal(a + b, b + a).kind is Eq.EXACT
    assert window_equal(a * b, b * a).kind is Eq.EXACT
    assert window_equal(a * (b + c), a * b + a * c).kind is Eq.EXACT
    assert window_equal(a - a, Series.zero()).kind is Eq.EXACT
    one = Series(("x",), {(0,): Q(1)}, a.window)
    assert window_equal(a * one, a).kind is Eq.EXACT


POLY_X = laurent(("x",), RNG, 0, 4)


@settings(max_examples=350, deadline=None)
@given(POLY_X, POLY_X)
def test_taylor_substitution_is_ring_hom(a, b):
    """x -> x0+x2 on polynomials is exact and multiplicative/additive."""
    sub = lambda s: s.substitute_sum("x", "x0", "x2")
    assert sub(a).exact and sub(b).exact
    assert window_equal(sub(a * b), sub(a) * sub(b)).kind is Eq.EXACT
    assert window_equal(sub(a + b), sub(a) + sub(b)).kind is Eq.EXACT


@settings(max_examples=350, deadline=None)
@given(POLY_X)
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
# sympy as the oracle for arithmetic, substitution and renaming: a Laurent
# polynomial s is the polynomial x^SHIFT·s over QQ, every generator's
# exponent raised by SHIFT, which is past every negative power drawn, and
# even, so that a sign change of a variable does not change the sign of the
# shift

GENS = ("x", "x0", "x1", "x2", "x3")
POLYS = ring(",".join(GENS), QQ)[0]
SHIFT = 8


def to_poly(s):
    """s · x^SHIFT over QQ in every generator."""
    at = [GENS.index(v) for v in s.variables]
    terms = {}
    for ex, c in s.coeffs.items():
        m = [SHIFT] * len(GENS)
        for i, e in zip(at, ex):
            m[i] += e
        terms[tuple(m)] = QQ(c.numerator, c.denominator)
    return POLYS(terms)


def poly_coeffs(p, variables, shift):
    """{exponent tuple over variables: Fraction} of p · x^-shift, the shift
    an exponent vector over the generators."""
    at = [GENS.index(v) for v in variables]
    return {tuple(m[i] - shift[i] for i in at):
            Fraction(int(c.numerator), int(c.denominator))
            for m, c in p.items()}


def by_sympy(op, a, b):
    """{exponent tuple: coefficient} of a + b or a * b, computed by sympy
    over the variables of both."""
    variables = tuple(sorted(set(a.variables) | set(b.variables)))
    if op == "+":
        return poly_coeffs(to_poly(a) + to_poly(b), variables,
                           (SHIFT,) * len(GENS))
    return poly_coeffs(to_poly(a) * to_poly(b), variables,
                       (2 * SHIFT,) * len(GENS))


def signed(name):
    """(variable, sign) of a signed variable name such as "x1" or "-x1"."""
    return (name[1:], -1) if name.startswith("-") else (name, 1)


def renamed_by_sympy(s, mapping, variables):
    """{exponent tuple over variables: coefficient} of s with each variable
    v replaced by the signed name mapping[v], substituted by sympy."""
    subs = []
    for v in s.variables:
        name, sign = signed(mapping.get(v, v))
        subs.append((POLYS.gens[GENS.index(v)],
                     sign * POLYS.gens[GENS.index(name)]))
    (shift,) = POLYS({(SHIFT,) * len(GENS): 1}).compose(subs).keys()
    return poly_coeffs(to_poly(s).compose(subs), variables, shift)


@functools.cache
def power_series(n):
    """{(i, j): c} of sympy's series of (y + z)^n in nonnegative powers of
    z, through z^8: past every power that a window up to 8 keeps."""
    y, z = sympy.symbols("y z")
    out = {}
    for term in sympy.Add.make_args(sympy.expand(
            sympy.series((y + z) ** n, z, 0, 9).removeO())):
        c, rest = term.as_coeff_Mul()
        powers = rest.as_powers_dict()
        out[int(powers.get(y, 0)), int(powers.get(z, 0))] = \
            Fraction(int(c.p), int(c.q))
    return out


def substituted(s, var, first, second):
    """(variables, {exponent tuple: coefficient}) of var -> first + second
    in s, each power of var expanded by sympy; a summand that is another
    variable of s adds to its exponents."""
    (f, sf), (g, sg) = signed(first), signed(second)
    variables = tuple(sorted(set(s.variables) - {var} | {f, g}))
    out = {}
    for ex, c in s.coeffs.items():
        powers = dict(zip(s.variables, ex))
        n = powers.pop(var)
        for (i, j), b in power_series(n).items():
            term = dict(powers)
            term[f], term[g] = term.get(f, 0) + i, term.get(g, 0) + j
            key = tuple(term.get(v, 0) for v in variables)
            out[key] = out.get(key, 0) + c * b * sf ** (i % 2) * sg ** (j % 2)
    return variables, {ex: c for ex, c in out.items() if c}


def assert_substitution_matches_sympy(s, out, first, second):
    """out, x -> first + second in s, is sympy's series in the second
    summand on every coefficient inside the window."""
    variables, want = substituted(s, "x", first, second)
    assert out.variables == variables == ("x1", "x2")
    assert out.coeffs == {ex: c for ex, c in want.items()
                          if holds(s.window, ex)}


@settings(max_examples=60, deadline=None)
@given(laurent_x(), st.sampled_from(["x1", "-x1"]),
       st.sampled_from(["x2", "-x2"]))
def test_substitute_sum_matches_sympy_inside_the_window(s, first, second):
    """x -> ±x1 ± x2, expanded in nonnegative powers of x2, agrees with
    sympy's series in x2 on every coefficient inside the window, and is
    exact exactly when x has no negative power."""
    out = s.substitute_sum("x", first, second)
    assert_substitution_matches_sympy(s, out, first, second)
    assert out.exact == s.is_polynomial()


@settings(max_examples=40, deadline=None)
@given(laurent_x(HALVES), st.sampled_from(["x1", "-x1"]),
       st.sampled_from(["x2", "-x2"]))
def test_substitution_keeps_the_normal_form_and_matches_sympy(s, first, second):
    out = s.substitute_sum("x", first, second)
    assert_normal(out)
    assert_substitution_matches_sympy(s, out, first, second)


def test_a_summand_among_the_variables_moves_the_cap():
    # x0^3 (x0+x2)^-1 = Σ (-1)^k x0^(2-k) x2^k keeps x2^3 in the window
    # -3..3: the cap is where x2 leaves the window or x0 drops below it, read
    # from the exponents the term already has, not from the window alone
    out = Series(("x0", "x1"), {(3, -1): 1}, (-3, 3)).substitute_sum(
        "x1", "x0", "x2")
    assert out.coeffs == {(2, 0): 1, (1, 1): -1, (0, 2): 1, (-1, 3): -1}
    assert not out.exact


@settings(max_examples=60, deadline=None)
@given(series_over(st.sampled_from([("x0", "x1"), ("x1", "x2"),
                                    ("x0", "x1", "x2")]),
                   st.tuples(st.integers(-3, 0), st.integers(0, 3)), -3, 3),
       st.sampled_from([("x0", "x2"), ("-x0", "x2"), ("x0", "-x2"),
                        ("x2", "x0"), ("x1", "x2"), ("x0", "x1")]))
def test_substitution_into_its_own_variables_matches_sympy(s, summands):
    """x1 -> a sum of x0, x1 or x2 in a series that holds x0 or x2 agrees
    with sympy's series in the second summand on every coefficient inside
    the window."""
    out = s.substitute_sum("x1", *summands)
    variables, want = substituted(s, "x1", *summands)
    assert out.variables == variables
    assert out.coeffs == {ex: c for ex, c in want.items()
                          if holds(s.window, ex)}


def test_substitute_sum_without_a_window_has_nowhere_to_clip():
    with pytest.raises(SeriesError):
        Series.monomial("x", -1).substitute_sum("x", "x1", "x2")
    out = Series.monomial("x", 2).substitute_sum("x", "x1", "x2")
    assert out.exact and out.window is None
    assert out.coeffs == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


# a series of one term is substituted through the kept substitution of its
# unit term; the general loop, summed term by term and clipped, is kept in
# apply_chains.py as the oracle

ONE_TERM_SUBSTITUTIONS = [
    (("x",), "x", "x1", "-x2"), (("x",), "x", "-x2", "x1"),
    (("x",), "x", "-x1", "-x2"), (("x",), "x", "x", "z"),
    (("x1", "x2"), "x1", "x0", "x2"), (("x1", "x2"), "x1", "-x2", "x1"),
    (("x0", "x1"), "x1", "x0", "-x2")]


@st.composite
def one_term_substitution(draw):
    """A one-term series, windowed or not, exact or not, with an int or a
    Fraction coefficient and an exponent inside its window (-4..4 when it
    has none), and the substitution to make in it."""
    variables, var, first, second = draw(st.sampled_from(
        ONE_TERM_SUBSTITUTIONS))
    window = draw(WINDOW_OR_NONE)
    lo, hi = window or (-4, 4)
    ex = draw(st.tuples(*[st.integers(lo, hi)] * len(variables)))
    c = draw(NONZERO | st.integers(-6, 6).filter(bool))
    s = Series(variables, {ex: c}, window, draw(st.booleans()))
    return s, var, first, second


def typed_fields(s):
    return (s.variables, [(ex, c, type(c)) for ex, c in s.coeffs.items()],
            s.window, s.exact)


@settings(max_examples=200, deadline=None)
@given(one_term_substitution())
def test_a_one_term_substitution_equals_the_general_loop(case):
    """The same variables, coefficients with their types in order, window
    and exactness, first computed and then kept; or the same SeriesError
    for a negative power without a window, every time."""
    s, var, first, second = case
    try:
        want = typed_fields(apply_chains.substitute_sum(s, var, first, second))
    except SeriesError as exc:
        for _ in range(2):
            with pytest.raises(SeriesError) as got:
                s.substitute_sum(var, first, second)
            assert str(got.value) == str(exc)
        return
    for _ in range(2):
        assert typed_fields(s.substitute_sum(var, first, second)) == want


def window_equal_by_subtraction(a, b):
    """(kind, witness) of window_equal as the difference a - b decides it."""
    diff = a - b
    if diff.coeffs:
        return Eq.UNEQUAL, min(diff.coeffs)
    if a.exact and b.exact and diff.exact:
        return Eq.EXACT, None
    return Eq.WINDOW, None


def inexact_or_not(draw, s):
    """s with its exact flag kept or dropped."""
    return Series(s.variables, s.coeffs, s.window, s.exact and draw(st.booleans()))


@st.composite
def compared_pair(draw):
    """a and b, each with its own exact flag; b has a's variables, window
    and coefficients half of the time, and otherwise differs from it in
    its window, in one coefficient, in its variables alone, or in
    everything."""
    variables = draw(st.sampled_from([(), ("x1",), ("x1", "x2")]))
    a = inexact_or_not(draw, draw(laurent(variables, draw(windows), -3, 3)))
    how = draw(st.sampled_from(["same", "same", "same", "same", "window",
                                "coefficient", "renamed", "other"]))
    if how == "renamed":
        renamed = {(): (), ("x1",): ("x2",), ("x1", "x2"): ("x0", "x2")}
        b = Series(renamed[variables], a.coeffs, a.window)
    elif how == "other":
        other = draw(st.sampled_from([(), ("x1",), ("x2",), ("x1", "x2")]))
        b = draw(laurent(other, draw(windows), -3, 3))
    else:
        terms = dict(a.coeffs)
        if how == "coefficient":
            ex = (draw(st.integers(-3, 3)),) * len(variables)
            terms[ex] = terms.get(ex, 0) + draw(NONZERO)
        window = draw(windows) if how == "window" else a.window
        b = Series(variables, terms, window)
    return a, inexact_or_not(draw, b)


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
    meet = _meet(wa, wb)
    lo, hi = meet or (-3, 3)
    layouts = st.sampled_from([("x1",), ("x2",), ("x1", "x2")])
    return (draw(laurent(draw(layouts), wa, lo, hi)),
            draw(laurent(draw(layouts), wb, lo, hi)), meet)


@settings(max_examples=200, deadline=None)
@given(operand_pair(), st.sampled_from(["+", "*"]))
def test_arithmetic_matches_sympy_inside_the_meet(pair, op):
    """a + b and a * b agree with sympy on every exponent inside the meet of
    the windows, and are exact exactly when sympy's result has no term
    outside it; with both windows None, exact and equal everywhere."""
    a, b, meet = pair
    out = a + b if op == "+" else a * b
    want = by_sympy(op, a, b)
    inside = {ex: c for ex, c in want.items() if holds(meet, ex)}
    assert out.window == meet
    assert out.variables == tuple(sorted(set(a.variables) | set(b.variables)))
    assert out.coeffs == inside
    assert out.exact == (inside == want)


@settings(max_examples=60, deadline=None)
@given(laurent_x())
def test_negating_rename_matches_sympy(s):
    out = s.rename({"x": "-x"})
    assert out.exact
    assert out.coeffs == renamed_by_sympy(s, {"x": "-x"}, ("x",))


@settings(max_examples=60, deadline=None)
@given(laurent(("x1", "x2"), (-4, 4), -2, 2), st.sampled_from(["x1", "-x1"]))
def test_merging_rename_matches_sympy(s, target):
    out = s.rename({"x2": target})
    assert out.variables == ("x1",) and out.exact
    assert out.coeffs == renamed_by_sympy(s, {"x2": target}, ("x1",))


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


def fields(s):
    return s.variables, s.coeffs, s.window, s.exact


@settings(max_examples=400, deadline=None)
@given(CLIPPED, CLIPPED, st.sampled_from(["+", "*"]))
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
    s = inexact_or_not(draw, draw(laurent(variables, draw(WINDOW_OR_NONE),
                                          -4, 4)))
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
# variable, and each coefficient an int when integral, otherwise a
# Fraction.  Each is a fixed point of the public constructor.


def in_normal_form(c):
    """An exact coefficient's normal form: an int when integral, otherwise
    a Fraction with denominator > 1; never a float."""
    return type(c) is int or type(c) is Fraction and c.denominator > 1


def assert_normal(r):
    assert fields(r) == fields(Series(r.variables, dict(r.coeffs), r.window,
                                      r.exact))
    assert all(in_normal_form(c) for c in r.coeffs.values())


@st.composite
def kernel_pair(draw, lo=-4, hi=4, values=COEFFS, other_window=WINDOW_OR_NONE):
    """Two operands in disjoint, interleaved or shared variables, their
    exponents in lo..hi, often outside either window; a has a window or
    none, and b has a's half of the time and otherwise one drawn from
    other_window."""
    wa = draw(WINDOW_OR_NONE)
    wb = wa if draw(st.booleans()) else draw(other_window)
    return (draw(laurent(draw(SUBSETS), wa, lo, hi, values)),
            draw(laurent(draw(SUBSETS), wb, lo, hi, values)))


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


# pairs of layouts whose variables all sort apart: those of the first
# before those of the second, or after them
DISJOINT = list(dict.fromkeys(
    pair for cut in range(4)
    for lower in (NAMES[:cut], NAMES[:cut][:1], NAMES[:cut][1:])
    for upper in (NAMES[cut:], NAMES[cut:][:1], NAMES[cut:][1:])
    for pair in ((lower, upper), (upper, lower))))


# two one-term factors whose product is integral, in either order of their
# variables
HALF_X1 = Series(("x1",), {(1,): Q(1, 2)}, (-2, 2))
TWO_X2 = Series(("x2",), {(-2,): 2}, (-2, 2))


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.sampled_from(DISJOINT), WINDOW_OR_NONE).flatmap(
    lambda drawn: st.tuples(*(laurent(v, drawn[1], -4, 4) for v in drawn[0]))))
@example((HALF_X1, TWO_X2))
@example((TWO_X2, HALF_X1))
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
@given(CLIPPED, st.sampled_from([0, Q(0), 1, -2, Q(3, 2)]))
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


def deriv_by_definition(s, var):
    if var not in s.variables:
        return Series(s.variables, {}, s.window, s.exact)
    i = s.variables.index(var)
    return Series(s.variables, {
        ex[:i] + (ex[i] - 1,) + ex[i + 1:]: c * ex[i]
        for ex, c in s.coeffs.items() if ex[i]}, s.window, s.exact)


def extract_by_definition(s, var, k):
    if var not in s.variables:
        return s if k == 0 else Series(s.variables, {}, s.window, s.exact)
    i = s.variables.index(var)
    return Series(s.variables[:i] + s.variables[i + 1:], {
        ex[:i] + ex[i + 1:]: c for ex, c in s.coeffs.items() if ex[i] == k},
        s.window, s.exact)


@settings(max_examples=300, deadline=None)
@given(CLIPPED, st.sampled_from(NAMES + ("x3",)), st.integers(-4, 4))
def test_derivative_and_extraction_are_in_normal_form(s, var, k):
    for got, want in ((s.deriv(var), deriv_by_definition(s, var)),
                      (s.extract(var, k), extract_by_definition(s, var, k))):
        assert_normal(got)
        assert fields(got) == fields(want)


def test_a_derivative_at_the_low_edge_of_the_window_is_clipped():
    s = Series(("x",), {(-2,): Q(3), (1,): Q(1)}, (-2, 2))
    d = s.deriv("x")
    assert d.coeffs == {(0,): 1} and not d.exact
    assert_normal(d)
    e = s.extract("x", 1)
    assert fields(e) == ((), {(): 1}, None, True)
    assert_normal(e)


@settings(max_examples=300, deadline=None)
@given(series_over(st.sampled_from([("x1",), ("x0", "x1"), ("x1", "x2"),
                                    ("x0", "x1", "x2")]),
                   st.tuples(st.integers(-3, 0), st.integers(0, 3)), -4, 4),
       st.sampled_from([("x0", "x2"), ("x0", "-x2"), ("-x0", "x1"),
                        ("x1", "x2"), ("x2", "x1"), ("-x1", "-x0")]))
def test_substitution_is_in_normal_form(s, summands):
    r = s.substitute_sum("x1", *summands)
    assert_normal(r)
    if any(ex[s.variables.index("x1")] < 0 for ex in s.coeffs):
        assert not r.exact


@pytest.mark.parametrize("n", range(-8, 9))
def test_binomials_are_integers(n):
    for k in range(9):
        b = binom(n, k)
        assert type(b) is int
        assert b == sympy.ff(n, k) / sympy.factorial(k)


# ---------------------------------------------------------------------------
# exact coefficients keep one normal form: an int when integral, otherwise a
# Fraction with denominator > 1, and never a float


@pytest.mark.parametrize("bad", [1 / 2, 2.0, 1j, Decimal("1.5"), "1"])
def test_a_coefficient_neither_int_nor_fraction_is_rejected(bad):
    with pytest.raises(SeriesError, match="not an int or a Fraction"):
        Series(("x",), {(1,): bad}, RNG)
    for make in (lambda: Series.const(bad), lambda: Series.monomial("x", 1, bad),
                 lambda: mono("x", 1).scale(bad), lambda: mono("x", 1) * bad,
                 lambda: mono("x", 1) + bad):
        with pytest.raises(SeriesError):
            make()


def test_an_integral_fraction_is_stored_as_its_int():
    s = Series(("x",), {(1,): Fraction(4, 2), (2,): Fraction(3, 2),
                        (3,): Fraction(-6, 3), (4,): Fraction(0)}, RNG)
    assert [(ex, type(c), c) for ex, c in s.coeffs.items()] == [
        ((1,), int, 2), ((2,), Fraction, Fraction(3, 2)), ((3,), int, -2)]
    assert type(s.coeff((9,))) is int
    assert type(Series.const(Fraction(5)).coeffs[()]) is int
    t = parse_series("1/2@(1) + 1/2@(1) + 4/2", ("x",))
    assert [(ex, type(c), c) for ex, c in t.coeffs.items()] == [
        ((1,), int, 1), ((0,), int, 2)]


@settings(max_examples=400, deadline=None)
@given(kernel_pair(-2, 2, HALVES, st.none()),
       st.sampled_from([0, 1, -1, 2, Q(1, 2), Q(-2, 3), Q(4, 2)]),
       st.sampled_from(NAMES), st.integers(-2, 2),
       st.lists(st.sampled_from(["x1", "-x1"]), min_size=3, max_size=3))
def test_kernel_results_keep_the_normal_form(pair, k, var, e, targets):
    """Every coefficient of +, -, *, scale, a merging rename, deriv and
    extract is an int when integral and a Fraction otherwise, and equals
    the oracle's."""
    a, b = pair
    merged = dict(zip(a.variables, targets))
    negated = Series(b.variables, {ex: -c for ex, c in b.coeffs.items()},
                     b.window, b.exact)
    for got, want in (
            (a + b, align_both_then("+", a, b)),
            (a - b, align_both_then("+", a, negated)),
            (a * b, align_both_then("*", a, b)),
            (a.scale(k), Series(a.variables, {ex: c * k for ex, c
                                              in a.coeffs.items()},
                                a.window, a.exact)),
            (a.rename(merged), rename_by_loop(a, merged)),
            (a.deriv(var), deriv_by_definition(a, var)),
            (a.extract(var, e), extract_by_definition(a, var, e))):
        assert_normal(got)
        assert fields(got) == fields(want)
