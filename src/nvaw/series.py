"""Exact arithmetic for sparse Laurent polynomials and truncated formal series.

Everything is over the rationals.  A Series holds a finite sparse support in
up to three formal variables together with one truncation window and an
exactness flag.  The window is a property of the data: either a range
(lo, hi) that bounds every exponent, set where a table is built (the
registry, a parsed file), or None for untruncated exact data (x-free
tables, monomials, polynomials such as (x1-x2)^k), which clips nothing and
is neutral when windows meet.  Exact means the stored support represents
the object with no error; the flag drops to False the first time a
coefficient is clipped at a window boundary, and the taint propagates
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
# normal form: sorted variables, no zero coefficient, every exponent inside
# the window, and the window None when there is no variable.  The public
# constructor checks its input and then normalizes it; a kernel operation
# builds its result once, normalizing only what it may have moved or
# cancelled.


def _clip(coeffs, window):
    """(kept, clipped): the nonzero coefficients whose exponents lie inside
    the window, and whether a nonzero one outside it was dropped."""
    if window is None:
        return {ex: c for ex, c in coeffs.items() if c}, False
    lo, hi = window
    kept = {}
    clipped = False
    for ex, c in coeffs.items():
        if not c:
            continue
        if lo <= min(ex) and max(ex) <= hi:
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
        return self.coeffs.get(tuple(expt), Q(0))

    def is_polynomial(self):
        """No negative exponents in any variable."""
        return all(all(e >= 0 for e in ex) for ex in self.coeffs)

    def min_degree(self, var):
        i = self.variables.index(var)
        return min((ex[i] for ex in self.coeffs), default=0)

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
        for ex, c in b.items():
            out[ex] = out.get(ex, Q(0)) + c
        return _normalized(variables, out, window, ea and eb)

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
        a, b, window = self.coeffs, other.coeffs, self.window
        exact = self.exact and other.exact
        first, second = self.variables, other.variables
        if not first or not second:
            # a factor with no variables is a scale: the other factor's
            # variables and window, no lift and no clip pass
            s, k = (other, a.get((), 0)) if not first else (self, b.get((), 0))
            return _made(s.variables, {ex: c * k for ex, c in s.coeffs.items()}
                         if k else {}, s.window, exact)
        if window == other.window:
            # in disjoint variables under one window, each exponent of the
            # product is the operands' two placed side by side: inside the
            # window, and met by no other term, so none cancels
            if first[-1] < second[0]:
                return _made(first + second, {
                    ex1 + ex2: c1 * c2 for ex1, c1 in a.items()
                    for ex2, c2 in b.items()}, window, exact)
            if second[-1] < first[0]:
                return _made(second + first, {
                    ex2 + ex1: c1 * c2 for ex1, c1 in a.items()
                    for ex2, c2 in b.items()}, window, exact)
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
        return _normalized(variables, out, window, exact)

    __rmul__ = __mul__

    def scale(self, c):
        if not c:
            return _made(self.variables, {}, self.window, self.exact)
        return _made(self.variables, {ex: v * c for ex, v in self.coeffs.items()},
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
        variable order moves no exponent: the coefficients pass unchanged."""
        targets = [_signed(mapping.get(v, v)) for v in self.variables]
        names = tuple(name for name, _ in targets)
        variables = tuple(sorted(set(names)))
        neg = [i for i, (_, sign) in enumerate(targets) if sign < 0]
        if names == variables and not neg:
            return _made(variables, self.coeffs, self.window, self.exact)
        pos = [variables.index(name) for name in names]
        out = {}
        for ex, c in self.coeffs.items():
            ne = [0] * len(variables)
            for p, e in zip(pos, ex):
                ne[p] += e
            if sum(ex[i] for i in neg) % 2:
                c = -c
            ne = tuple(ne)
            out[ne] = out[ne] + c if ne in out else c
        if len(variables) < len(names):
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
            out[tuple(ne)] = c * Q(ex[i])
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
        """
        if var not in self.variables:
            return self
        (f, sf), (g, sg) = _signed(first), _signed(second)
        if f == g:
            raise VariableMismatch("summands must be distinct variables")
        i = self.variables.index(var)
        rest = self.variables[:i] + self.variables[i + 1 :]
        variables = tuple(sorted(set(rest) | {f, g}))
        pos = [variables.index(v) for v in rest]
        pf, pg = variables.index(f), variables.index(g)
        exact = self.exact
        # the integer multipliers binom(n, k) sf^(n-k) sg^k of each power n
        rows = {}
        out = {}
        for ex, c in self.coeffs.items():
            n = ex[i]
            base = [0] * len(variables)
            for p, e in zip(pos, ex[:i] + ex[i + 1 :]):
                base[p] = e
            row = rows.get(n)
            if row is None:
                if n >= 0:
                    cap = n
                elif self.window is None:
                    raise SeriesError(f"{var}^{n} has an infinite expansion "
                                      "and no window to clip it at")
                else:
                    lo, hi = self.window
                    cap = max(-1, min(hi, n - lo))
                row = rows[n] = [binom(n, k) * sf ** ((n - k) % 2) * sg ** (k % 2)
                                 for k in range(cap + 1)]
            if n < 0:
                exact = False
            for k, m in enumerate(row):
                ne = list(base)
                ne[pf] += n - k
                ne[pg] += k
                ne = tuple(ne)
                term = c if m == 1 else c * m
                out[ne] = out[ne] + term if ne in out else term
        return _normalized(variables, out, self.window, exact)


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


def window_equal(a, b):
    """Certified equality of two Series inside the common window."""
    if a.variables == b.variables and a.coeffs == b.coeffs:
        # each support lies in its own window, so in their meet: a - b
        # would clip nothing and be zero
        return EqResult(Eq.EXACT if a.exact and b.exact else Eq.WINDOW)
    diff = a - b
    if diff.coeffs:
        return EqResult(Eq.UNEQUAL, min(diff.coeffs))
    return EqResult(Eq.EXACT if a.exact and b.exact and diff.exact else Eq.WINDOW)


# ---------------------------------------------------------------------------
# the literal syntax  `c@(e1[,e2[,e3]])` joined by `+`


_TERM_RE = re.compile(
    r"^\s*(?P<coeff>-?\d+(?:/\d+)?)\s*(?:@\(\s*(?P<expts>-?\d+(?:\s*,\s*-?\d+)*)\s*\))?\s*$"
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
        coeffs[expt] = coeffs.get(expt, Q(0)) + c
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
