"""Exact arithmetic for sparse Laurent polynomials and truncated formal series.

Everything is over the rationals, in one normal form: an integral
coefficient is an int, and any other a Fraction with denominator > 1, so
that integer arithmetic never reaches `fractions`.  A Series holds a finite
sparse support in up to three formal variables together with one
truncation window and an exactness flag.  The window is a property of the
data: either a range (lo, hi) that bounds every exponent, set where a table
is built (the registry, a parsed file), or None for untruncated exact data
(x-free tables, monomials, polynomials such as (x1-x2)^k), which clips
nothing and is neutral when windows meet.  Exact means the stored support
represents the object with no error; the flag drops to False the first time
a coefficient is clipped at a window boundary, and the taint propagates
through arithmetic.
"""

import math
import operator
import re
from enum import Enum
from fractions import Fraction

Q = Fraction

MAX_VARS = 3


class SeriesError(ValueError):
    pass


class VariableMismatch(SeriesError):
    pass


class EmptyWindow(SeriesError):
    pass


# ---------------------------------------------------------------------------
# truncation windows: one (lo, hi) range bounds every exponent of a Series;
# the window None (always so for a variable-free Series) clips nothing and
# is neutral under intersection


def _meet(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return (max(a[0], b[0]), min(a[1], b[1]))


DEFAULT_RANGE = (-8, 8)


# ---------------------------------------------------------------------------
# the Series type


def binom(n, i):
    """Binomial coefficient with integer (possibly negative) upper index,
    an int: n(n-1)...(n-i+1) is a multiple of i! for every integer n."""
    num = 1
    for j in range(i):
        num *= n - j
    return num // math.factorial(i)


# ---------------------------------------------------------------------------
# normal form: sorted variables, no zero coefficient, every coefficient an
# int when integral and otherwise a Fraction, every exponent inside the
# window, and the window None when there is no variable.  The public
# constructor checks its input and then normalizes it; a kernel operation
# builds its result once, normalizing only what it may have moved, cancelled
# or made integral.  Only a Fraction result is tested for denominator 1.


def _rational(c):
    """The coefficient c in normal form; SeriesError unless an int or a
    Fraction (int / int is a float, which has no place in exact data)."""
    if isinstance(c, Q):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise SeriesError(f"coefficient {c!r} is not an int or a Fraction")


def _integral(coeffs):
    """coeffs, each integral Fraction replaced by its int in place."""
    for ex, c in coeffs.items():
        if c.__class__ is Q and c.denominator == 1:
            coeffs[ex] = c.numerator
    return coeffs


def _clip(coeffs, window):
    """(kept, clipped): the nonzero coefficients in normal form whose
    exponents lie inside the window, and whether a nonzero one outside it
    was dropped."""
    lo, hi = window or (None, None)
    kept = {}
    clipped = False
    for ex, c in coeffs.items():
        if c.__class__ is not int:
            c = _rational(c)
        if not c:
            continue
        if window is None or lo <= min(ex) and max(ex) <= hi:
            kept[ex] = c
        else:
            clipped = True
    return kept, clipped


def _made(variables, coeffs, window, exact):
    """The Series of data already in normal form, unchecked."""
    s = object.__new__(Series)
    s.variables = variables
    s.coeffs = coeffs
    s.window = window if variables else None
    s.exact = exact
    return s


def _normalized(variables, coeffs, window, exact):
    """The Series of coefficients that may hold zeros or exponents outside
    the window: those are dropped, and a dropped term clears exactness."""
    kept, clipped = _clip(coeffs, window)
    return _made(variables, kept, window, exact and not clipped)


def _placed(a, b):
    """(variables, coeffs, window, exact) of the product a * b when it needs
    no lift and no clip, its coefficients in a fresh dict; None when it does.
    A factor with no variables scales the other: the other's variables and
    window.  In disjoint variables under one window, each exponent of the
    product is the operands' two placed side by side: inside the window, and
    met by no other term, so none cancels; two one-term factors make one
    term, an int unless a factor is a Fraction."""
    x, y = a.coeffs, b.coeffs
    exact = a.exact and b.exact
    first, second = a.variables, b.variables
    if not first or not second:
        s, k = (b, x.get((), 0)) if not first else (a, y.get((), 0))
        return (s.variables, _integral({ex: c * k for ex, c in s.coeffs.items()})
                if k else {}, s.window, exact)
    swap = second[-1] < first[0]
    if a.window != b.window or not (swap or first[-1] < second[0]):
        return None
    variables = second + first if swap else first + second
    if len(x) == 1 == len(y):
        (ex1, c1), = x.items()
        (ex2, c2), = y.items()
        # a factor 1, the most common, leaves the other as it is
        c = c2 if c1 == 1 else c1 if c2 == 1 else c1 * c2
        if c.__class__ is Q and c.denominator == 1:
            c = c.numerator
        return variables, {ex2 + ex1 if swap else ex1 + ex2: c}, a.window, exact
    return variables, _integral({
        ex2 + ex1 if swap else ex1 + ex2: c1 * c2 for ex1, c1 in x.items()
        for ex2, c2 in y.items()}), a.window, exact


def _add_terms(coeffs, terms):
    """Add terms, in their order, into the coefficient dict coeffs in place:
    a new exponent takes its term as it is, a sum keeps the normal form (an
    integral Fraction becomes its int), and an exponent whose sum is 0
    leaves.  The sum of two series with the same variables and window."""
    for ex, c in terms.items():
        x = coeffs.get(ex)
        if x is None:
            coeffs[ex] = c
        else:
            x += c
            if not x:
                del coeffs[ex]
            elif x.__class__ is Q and x.denominator == 1:
                coeffs[ex] = x.numerator
            else:
                coeffs[ex] = x


class Series:
    __slots__ = ("variables", "coeffs", "window", "exact")

    def __init__(self, variables, coeffs, window, exact=True):
        variables = tuple(variables)
        if len(variables) > MAX_VARS:
            raise VariableMismatch(f"at most {MAX_VARS} variables, got {variables}")
        if len(variables) > 1 and list(variables) != sorted(variables):
            raise VariableMismatch(f"variables must be sorted: {variables}")
        if variables and window is not None:
            lo, hi = window
            if lo > hi:
                raise EmptyWindow(f"empty window [{lo},{hi}]")
            window = (lo, hi)
        else:
            window = None
        kept, clipped = _clip(coeffs, window)
        self.variables = variables
        self.coeffs = kept
        self.window = window
        self.exact = bool(exact) and not clipped

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero():
        return Series((), {}, None)

    @staticmethod
    def const(c):
        return Series((), {(): c}, None)

    @staticmethod
    def monomial(var, e, coeff=1):
        return Series((var,), {(e,): coeff}, None)

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def coeff(self, expt):
        return self.coeffs.get(tuple(expt), 0)

    def is_polynomial(self):
        """No negative exponents in any variable."""
        return all(all(e >= 0 for e in ex) for ex in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Series)
            and self.variables == other.variables
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.variables, tuple(sorted(self.coeffs.items(), key=lambda t: t[0]))))

    def __repr__(self):
        return f"Series({format_series(self)!r}, vars={self.variables}, exact={self.exact})"

    # -- variable alignment ------------------------------------------------

    def align(self, variables, window):
        """Reindex onto a superset variable tuple (sorted), clipped to a
        window inside self.window."""
        if self.variables == variables and self.window == window:
            return self
        coeffs, exact = self._lifted(variables, window)
        return _made(variables, coeffs, window, exact)

    def _lifted(self, variables, window):
        """(coeffs, exact) of align(variables, window) without building it:
        self.coeffs itself when the variables and the window are its own."""
        if self.variables == variables:
            if window in (None, self.window) or not variables:
                return self.coeffs, self.exact
            pos = None
        else:
            pos = []
            for v in self.variables:
                if v not in variables:
                    raise VariableMismatch(f"{v} not in target {variables}")
                pos.append(variables.index(v))
        lo, hi = window or (-math.inf, math.inf)
        out = {}
        for ex, c in self.coeffs.items():
            if pos is not None:
                ne = [0] * len(variables)
                for p, e in zip(pos, ex):
                    ne[p] = e
                ex = tuple(ne)
            if lo <= min(ex) and max(ex) <= hi:
                out[ex] = c
        # reindexing is one-to-one: a coefficient is missing iff clipped
        return out, self.exact and len(out) == len(self.coeffs)

    @staticmethod
    def _union(a, b):
        """(variables, window) of a combination of a and b: the union of
        their variables and the meet of their windows."""
        variables = (a.variables if a.variables == b.variables
                     else tuple(sorted(set(a.variables) | set(b.variables))))
        window = _meet(a.window, b.window)
        if window is not None and window[0] > window[1]:
            raise EmptyWindow(f"empty window [{window[0]},{window[1]}]")
        return variables, window

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Series):
            other = Series.const(other)
        variables, window = Series._union(self, other)
        a, ea = self._lifted(variables, window)
        b, eb = other._lifted(variables, window)
        out = dict(a)
        _add_terms(out, b)
        return _made(variables, out, window, ea and eb)

    __radd__ = __add__

    def __neg__(self):
        return _made(self.variables, {ex: -c for ex, c in self.coeffs.items()},
                     self.window, self.exact)

    def __sub__(self, other):
        if not isinstance(other, Series):
            other = Series.const(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        placed = _placed(self, other)
        if placed is not None:
            return _made(*placed)
        # the operands are lifted unclipped: the 0 a lift puts in for a
        # missing variable may lie outside the window, and only the
        # product's exponents are clipped
        variables, window = Series._union(self, other)
        a = self._lifted(variables, None)[0]
        b = other._lifted(variables, None)[0]
        out = {}
        for ex1, c1 in a.items():
            for ex2, c2 in b.items():
                ex = tuple(map(operator.add, ex1, ex2))
                prev = out.get(ex)
                out[ex] = c1 * c2 if prev is None else prev + c1 * c2
        return _normalized(variables, out, window, self.exact and other.exact)

    __rmul__ = __mul__

    def scale(self, c):
        if c.__class__ is not int:
            c = _rational(c)
        if not c:
            return _made(self.variables, {}, self.window, self.exact)
        return _made(self.variables,
                     _integral({ex: v * c for ex, v in self.coeffs.items()}),
                     self.window, self.exact)

    def __pow__(self, k):
        assert k >= 0
        out = Series.const(1)
        for _ in range(k):
            out = out * self
        return out

    # -- variable surgery ----------------------------------------------------

    def rename(self, mapping):
        """Substitute each variable v -> mapping.get(v, v).  A target may
        carry a sign, "-y" for v -> -y, and variables sent to one name merge,
        their exponents adding.  A one-to-one unsigned mapping that keeps the
        variable order moves no exponent: the coefficients pass unchanged,
        and a mapping that changes no variable returns the series itself."""
        at = (self.variables, *mapping.items())
        if at not in _RENAMES:
            targets = [_signed(mapping.get(v, v)) for v in self.variables]
            names = tuple(name for name, _ in targets)
            variables = tuple(sorted(set(names)))
            neg = [i for i, (_, sign) in enumerate(targets) if sign < 0]
            # where each exponent goes, None when none moves or changes sign
            pos = [variables.index(name) for name in names]
            moves = neg or names != variables
            _RENAMES[at] = variables, neg, pos if moves else None
        variables, neg, pos = _RENAMES[at]
        if pos is None:
            return self if variables == self.variables else _made(
                variables, self.coeffs, self.window, self.exact)
        out = {}
        for ex, c in self.coeffs.items():
            ne = [0] * len(variables)
            for p, e in zip(pos, ex):
                ne[p] += e
            if sum(ex[i] for i in neg) % 2:
                c = -c
            ne = tuple(ne)
            out[ne] = out[ne] + c if ne in out else c
        if len(variables) < len(pos):
            # merged exponents add: they may leave the window or cancel
            return _normalized(variables, out, self.window, self.exact)
        # one-to-one: each exponent is a permutation of one inside the window
        return _made(variables, out, self.window, self.exact)

    def deriv(self, var):
        if var not in self.variables:
            return _made(self.variables, {}, self.window, self.exact)
        i = self.variables.index(var)
        out = {}
        for ex, c in self.coeffs.items():
            if ex[i] == 0:
                continue
            ne = list(ex)
            ne[i] -= 1
            out[tuple(ne)] = c * ex[i]
        # a term at the low edge of the window moves out of it
        return _normalized(self.variables, out, self.window, self.exact)

    def extract(self, var, k):
        """Coefficient of var**k, a Series in the remaining variables."""
        if var not in self.variables:
            if k == 0:
                return self
            return _made(self.variables, {}, self.window, self.exact)
        i = self.variables.index(var)
        rest = self.variables[:i] + self.variables[i + 1 :]
        out = {}
        for ex, c in self.coeffs.items():
            if ex[i] == k:
                out[ex[:i] + ex[i + 1 :]] = c
        return _made(rest, out, self.window, self.exact)

    def substitute_sum(self, var, first, second):
        """Substitute var -> first + second, each summand a variable name
        with an optional sign ("x1", "-x2"); a summand may be var itself or
        another variable of the series.

        Negative powers are expanded in nonnegative powers of the SECOND
        summand (the iota convention).  That expansion is infinite, so it is
        clipped at the series' window and the result is not exact; a series
        without a window has nowhere to clip it and raises SeriesError.

        A series of one term is its coefficient times the kept substitution
        of its unit term; a longer one is summed and then clipped, since two
        of its terms may cancel outside the window.
        """
        if var not in self.variables:
            return self
        if len(self.coeffs) != 1:
            return self._substituted(var, first, second)
        (ex, c), = self.coeffs.items()
        at = (self.variables, var, first, second, self.window, ex)
        unit = _TERMS.get(at)
        if unit is None:
            unit = _TERMS[at] = _made(self.variables, {ex: 1}, self.window,
                                      True)._substituted(var, first, second)
        coeffs = {ne: c if m == 1 else c * m for ne, m in unit.coeffs.items()}
        return _made(unit.variables, coeffs if c.__class__ is int else
                     _integral(coeffs), self.window, self.exact and unit.exact)

    def _substituted(self, var, first, second):
        """substitute_sum of var in self, summed term by term and clipped."""
        at = (self.variables, var, first, second)
        plan = _PLANS.get(at)
        if plan is None:
            plan = _PLANS[at] = _substitution_plan(*at)
        variables, i, moves, pf, pg, signs = plan
        window = self.window
        exact = self.exact
        out = {}
        for ex, c in self.coeffs.items():
            n = ex[i]
            base = [0] * len(variables)
            for p, j in moves:
                base[p] = ex[j]
            if n >= 0:
                cap = n
            elif window is None:
                raise SeriesError(f"{var}^{n} has an infinite expansion "
                                  "and no window to clip it at")
            else:
                # a summand that is a variable of the series adds its
                # exponent in the term to those of the expansion, which
                # moves the cap
                exact = False
                cap = max(-1, min(window[1] - base[pg],
                                  n + base[pf] - window[0]))
            for k, m in enumerate(_binomial_row(n, cap, signs)):
                ne = base.copy()
                ne[pf] += n - k
                ne[pg] += k
                ne = tuple(ne)
                term = c if m == 1 else c * m
                out[ne] = out[ne] + term if ne in out else term
        return _normalized(variables, out, window, exact)


# Plans of substitute_sum and rename, kept for the life of the process:
# one per (variables, var, first, second), one per (variables, *mapping
# items), one integer row per (power, cap, signs), and one substituted unit
# term per (variables, var, first, second, window, exponent).  A window
# bounds the powers, caps and exponents a series can have, so they stay as
# small as the variable layouts and windows in use.
_PLANS = {}
_RENAMES = {}
_BINOMIAL_ROWS = {}
_TERMS = {}


def _substitution_plan(variables, var, first, second):
    """(result variables, index of var, moves, pf, pg, signs): each other
    variable's exponent moves from index j to index p, (p, j) in moves; the
    powers of first and second go to pf and pg."""
    (f, sf), (g, sg) = _signed(first), _signed(second)
    if f == g:
        raise VariableMismatch("summands must be distinct variables")
    i = variables.index(var)
    rest = [j for j in range(len(variables)) if j != i]
    out = tuple(sorted({variables[j] for j in rest} | {f, g}))
    moves = tuple((out.index(variables[j]), j) for j in rest)
    return out, i, moves, out.index(f), out.index(g), (sf, sg)


def _binomial_row(n, cap, signs):
    """The integer multipliers binom(n, k) sf^(n-k) sg^k, k = 0..cap, of
    the power n of a signed sum sf·first + sg·second."""
    at = (n, cap, signs)
    row = _BINOMIAL_ROWS.get(at)
    if row is None:
        sf, sg = signs
        row = _BINOMIAL_ROWS[at] = tuple(
            binom(n, k) * sf ** ((n - k) % 2) * sg ** (k % 2)
            for k in range(cap + 1))
    return row


def _signed(name):
    """(variable, sign) of a signed variable name such as "x" or "-x"."""
    return (name[1:], -1) if name.startswith("-") else (name, 1)


# ---------------------------------------------------------------------------
# certified equality


class Eq(Enum):
    EXACT = "ExactlyEqual"
    WINDOW = "EqualUpToWindow"
    UNEQUAL = "Unequal"


class EqResult:
    def __init__(self, kind, witness=None):
        self.kind = kind
        self.witness = witness

    def __bool__(self):
        return self.kind is not Eq.UNEQUAL


# the two verdicts without a witness, shared: an EqResult is never changed
_EXACT = EqResult(Eq.EXACT)
_WINDOW = EqResult(Eq.WINDOW)


def window_equal(a, b):
    """Certified equality of two Series inside the common window."""
    if a.variables == b.variables and a.coeffs == b.coeffs:
        # each support lies in its own window, so in their meet: a - b
        # would clip nothing and be zero
        return _EXACT if a.exact and b.exact else _WINDOW
    diff = a - b
    if diff.coeffs:
        return EqResult(Eq.UNEQUAL, min(diff.coeffs))
    return _EXACT if a.exact and b.exact and diff.exact else _WINDOW


# ---------------------------------------------------------------------------
# the literal syntax  `c@(e1[,e2[,e3]])` joined by `+`


_TERM_RE = re.compile(
    r"^\s*(?P<coeff>-?\d+(?:/0*[1-9]\d*)?)\s*(?:@\(\s*(?P<expts>-?\d+(?:\s*,\s*-?\d+)*)\s*\))?\s*$"
)


def parse_series(text, variables, rng=DEFAULT_RANGE):
    """Parse a series literal over the given (sorted) variable tuple."""
    variables = tuple(variables)
    text = text.strip()
    if text == "0":
        return Series(variables, {}, rng)
    coeffs = {}
    for part in text.split("+"):
        m = _TERM_RE.match(part)
        if not m:
            raise SeriesError(f"bad series term: {part.strip()!r}")
        c = Q(m.group("coeff"))
        if m.group("expts") is None:
            expt = (0,) * len(variables)
        else:
            expt = tuple(int(tok) for tok in m.group("expts").split(","))
        if len(expt) != len(variables):
            raise SeriesError(
                f"term {part.strip()!r} has arity {len(expt)}, expected {len(variables)}"
            )
        coeffs[expt] = coeffs.get(expt, 0) + c
    return Series(variables, coeffs, rng)


def format_series(s):
    if not s.coeffs:
        return "0"
    parts = []
    for expt in sorted(s.coeffs):
        c = s.coeffs[expt]
        if any(expt):
            parts.append(f"{c}@({','.join(str(e) for e in expt)})")
        else:
            parts.append(str(c))
    return " + ".join(parts)
