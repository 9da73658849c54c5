"""Exact arithmetic for sparse Laurent polynomials and truncated formal series.

Everything is over the rationals.  A Series holds a finite sparse support in
up to three formal variables together with a per-variable truncation window
and an exactness flag: exact means the stored support represents the object
with no error; the flag drops to False the first time a coefficient is
clipped at a window boundary, and the taint propagates through arithmetic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
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


class NonlinearError(SeriesError):
    """Raised when two symbolic coefficients would be multiplied."""


# ---------------------------------------------------------------------------
# linear expressions in named unknowns, used by the linear solver


class LinExpr:
    """Affine combination  const + sum(coeff * symbol)  over Q."""

    __slots__ = ("const", "terms")

    def __init__(self, const=0, terms=None):
        self.const = Q(const)
        self.terms = {s: Q(c) for s, c in (terms or {}).items() if c != 0}

    @staticmethod
    def sym(name):
        return LinExpr(0, {name: 1})

    @staticmethod
    def promote(x):
        return x if isinstance(x, LinExpr) else LinExpr(x)

    def is_const(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms) or self.const != 0

    def __eq__(self, other):
        other = LinExpr.promote(other)
        return self.const == other.const and self.terms == other.terms

    def __hash__(self):
        return hash((self.const, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        other = LinExpr.promote(other)
        terms = dict(self.terms)
        for s, c in other.terms.items():
            terms[s] = terms.get(s, Q(0)) + c
        return LinExpr(self.const + other.const, terms)

    __radd__ = __add__

    def __neg__(self):
        return LinExpr(-self.const, {s: -c for s, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-LinExpr.promote(other))

    def __rsub__(self, other):
        return LinExpr.promote(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, LinExpr):
            if other.is_const():
                other = other.const
            elif self.is_const():
                self, other = other, self.const
            else:
                raise NonlinearError("product of two symbolic coefficients")
        c = Q(other)
        return LinExpr(self.const * c, {s: v * c for s, v in self.terms.items()})

    __rmul__ = __mul__

    def evaluate(self, assignment):
        val = self.const
        for s, c in self.terms.items():
            val += c * assignment[s]
        return val

    def __repr__(self):
        parts = [str(self.const)] if self.const or not self.terms else []
        parts += [f"{c}*{s}" for s, c in sorted(self.terms.items())]
        return " + ".join(parts)


def _czero(c):
    return not c if isinstance(c, LinExpr) else c == 0


def _cmul(a, b):
    if isinstance(a, LinExpr) or isinstance(b, LinExpr):
        return LinExpr.promote(a) * b if isinstance(a, LinExpr) else LinExpr.promote(b) * a
    return a * b


# ---------------------------------------------------------------------------
# truncation windows


@dataclass(frozen=True)
class Window:
    """Per-variable degree bounds; immutable, keyed by variable name."""

    bounds: tuple  # ((var, (lo, hi)), ...) sorted by var

    @staticmethod
    def make(mapping):
        items = []
        for var, (lo, hi) in sorted(dict(mapping).items()):
            if lo > hi:
                raise EmptyWindow(f"empty window for {var}: [{lo},{hi}]")
            items.append((var, (int(lo), int(hi))))
        return Window(tuple(items))

    @staticmethod
    def uniform(variables, rng):
        lo, hi = rng
        return Window.make({v: (lo, hi) for v in variables})

    def as_dict(self):
        return dict(self.bounds)

    def get(self, var):
        for v, b in self.bounds:
            if v == var:
                return b
        raise KeyError(var)

    def merge(self, other):
        """Intersect on shared variables, union of variable sets."""
        a, b = self.as_dict(), other.as_dict()
        out = {}
        for v in set(a) | set(b):
            if v in a and v in b:
                lo = max(a[v][0], b[v][0])
                hi = min(a[v][1], b[v][1])
                if lo > hi:
                    raise EmptyWindow(f"empty window intersection for {v}")
                out[v] = (lo, hi)
            else:
                out[v] = a.get(v, b.get(v))
        return Window.make(out)

    def restrict(self, variables):
        d = self.as_dict()
        return Window.make({v: d[v] for v in variables})

    def contains(self, variables, expt):
        d = self.as_dict()
        for v, e in zip(variables, expt):
            lo, hi = d[v]
            if not lo <= e <= hi:
                return False
        return True


DEFAULT_RANGE = (-8, 8)


# ---------------------------------------------------------------------------
# the Series type


def binom(n, i):
    """Binomial coefficient with integer (possibly negative) upper index."""
    num = 1
    for j in range(i):
        num *= n - j
    return Q(num, math.factorial(i))


class Series:
    __slots__ = ("variables", "coeffs", "window", "exact")

    def __init__(self, variables, coeffs, window, exact=True):
        variables = tuple(variables)
        if len(variables) > MAX_VARS:
            raise VariableMismatch(f"at most {MAX_VARS} variables, got {variables}")
        if list(variables) != sorted(variables):
            raise VariableMismatch(f"variables must be sorted: {variables}")
        kept = {}
        clipped = False
        for expt, c in coeffs.items():
            if _czero(c):
                continue
            if window.contains(variables, expt):
                kept[tuple(expt)] = c
            else:
                clipped = True
        self.variables = variables
        self.coeffs = kept
        self.window = window.restrict(variables)
        self.exact = bool(exact) and not clipped

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(rng=DEFAULT_RANGE):
        return Series((), {}, Window.make({}), True)

    @staticmethod
    def const(c, rng=DEFAULT_RANGE):
        return Series((), {(): c} if not _czero(c) else {}, Window.make({}), True)

    @staticmethod
    def monomial(var, e, rng=DEFAULT_RANGE, coeff=1):
        return Series((var,), {(e,): coeff}, Window.uniform((var,), rng))

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def support(self):
        return sorted(self.coeffs)

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
        """Reindex onto a superset variable tuple (sorted)."""
        if self.variables == tuple(variables):
            return Series(self.variables, self.coeffs, window.merge(self.window), self.exact)
        pos = []
        for v in self.variables:
            if v not in variables:
                raise VariableMismatch(f"{v} not in target {variables}")
            pos.append(variables.index(v))
        out = {}
        for ex, c in self.coeffs.items():
            ne = [0] * len(variables)
            for p, e in zip(pos, ex):
                ne[p] = e
            out[tuple(ne)] = c
        return Series(tuple(variables), out, window.merge(self.window), self.exact)

    @staticmethod
    def _merged(a, b):
        variables = tuple(sorted(set(a.variables) | set(b.variables)))
        window = a.window.merge(b.window)
        return a.align(variables, window), b.align(variables, window), variables, window

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Series):
            other = Series.const(other)
        a, b, variables, window = Series._merged(self, other)
        out = dict(a.coeffs)
        for ex, c in b.coeffs.items():
            out[ex] = out.get(ex, Q(0)) + c
        return Series(variables, out, window, a.exact and b.exact)

    __radd__ = __add__

    def __neg__(self):
        return Series(
            self.variables, {ex: -c for ex, c in self.coeffs.items()}, self.window, self.exact
        )

    def __sub__(self, other):
        if not isinstance(other, Series):
            other = Series.const(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        a, b, variables, window = Series._merged(self, other)
        out = {}
        for ex1, c1 in a.coeffs.items():
            for ex2, c2 in b.coeffs.items():
                ex = tuple(e1 + e2 for e1, e2 in zip(ex1, ex2))
                prev = out.get(ex)
                out[ex] = _cmul(c1, c2) if prev is None else prev + _cmul(c1, c2)
        return Series(variables, out, window, a.exact and b.exact)

    __rmul__ = __mul__

    def scale(self, c):
        if _czero(c):
            return Series(self.variables, {}, self.window, self.exact)
        return Series(
            self.variables,
            {ex: _cmul(v, c) for ex, v in self.coeffs.items()},
            self.window,
            self.exact,
        )

    def __pow__(self, k):
        assert k >= 0
        out = Series.const(1)
        for _ in range(k):
            out = out * self
        return out

    # -- variable surgery ----------------------------------------------------

    def rename(self, mapping):
        variables = tuple(mapping.get(v, v) for v in self.variables)
        if len(set(variables)) != len(variables):
            raise VariableMismatch(f"rename collides: {variables}")
        order = sorted(range(len(variables)), key=lambda i: variables[i])
        new_vars = tuple(variables[i] for i in order)
        wd = self.window.as_dict()
        new_win = Window.make({mapping.get(v, v): wd[v] for v in self.variables})
        out = {tuple(ex[i] for i in order): c for ex, c in self.coeffs.items()}
        return Series(new_vars, out, new_win, self.exact)

    def negate_var(self, var):
        """Substitute var -> -var."""
        if var not in self.variables:
            return self
        i = self.variables.index(var)
        out = {ex: (c if ex[i] % 2 == 0 else -c) for ex, c in self.coeffs.items()}
        return Series(self.variables, out, self.window, self.exact)

    def deriv(self, var):
        if var not in self.variables:
            return Series(self.variables, {}, self.window, self.exact)
        i = self.variables.index(var)
        out = {}
        for ex, c in self.coeffs.items():
            if ex[i] == 0:
                continue
            ne = list(ex)
            ne[i] -= 1
            out[tuple(ne)] = _cmul(c, Q(ex[i]))
        return Series(self.variables, out, self.window, self.exact)

    def extract(self, var, k):
        """Coefficient of var**k, a Series in the remaining variables."""
        if var not in self.variables:
            if k == 0:
                return self
            return Series(self.variables, {}, self.window, self.exact)
        i = self.variables.index(var)
        rest = self.variables[:i] + self.variables[i + 1 :]
        wd = self.window.as_dict()
        win = Window.make({v: wd[v] for v in rest})
        out = {}
        for ex, c in self.coeffs.items():
            if ex[i] == k:
                out[ex[:i] + ex[i + 1 :]] = c
        return Series(rest, out, win, self.exact)

    def set_zero(self, var):
        return self.extract(var, 0)

    def diagonal(self, var_from, var_to):
        """Substitute var_from -> var_to (merging exponents)."""
        if var_from not in self.variables:
            return self
        i = self.variables.index(var_from)
        j = self.variables.index(var_to)
        rest = self.variables[:i] + self.variables[i + 1 :]
        wd = self.window.as_dict()
        win = Window.make({v: wd[v] for v in rest})
        jj = j if j < i else j - 1
        out = {}
        for ex, c in self.coeffs.items():
            ne = list(ex[:i] + ex[i + 1 :])
            ne[jj] += ex[i]
            ne = tuple(ne)
            out[ne] = out.get(ne, Q(0)) + c
        return Series(rest, out, win, self.exact)

    def substitute_sum(self, var, first, second, rng, sign_first=1, sign_second=1):
        """Substitute var -> sign_first*first + sign_second*second.

        Negative powers are expanded in nonnegative powers of the SECOND
        summand (the iota convention); the expansion for negative exponents
        is infinite and therefore clipped, dropping the exact flag.
        """
        if var not in self.variables:
            return self
        if first == second:
            raise VariableMismatch("summands must be distinct variables")
        i = self.variables.index(var)
        rest = self.variables[:i] + self.variables[i + 1 :]
        # first/second may coincide with a remaining variable; the monomial
        # products below merge exponents automatically.
        wd = self.window.as_dict()
        win = {v: wd[v] for v in rest}
        for v in (first, second):
            if v not in win:
                win[v] = rng
        window = Window.make(win)
        variables = tuple(sorted(set(rest) | {first, second}))

        total = Series(variables, {}, window, self.exact)
        sec_hi = window.get(second)[1]
        fst_lo = window.get(first)[0]
        for ex, c in self.coeffs.items():
            n = ex[i]
            rest_mono = Series(
                rest, {ex[:i] + ex[i + 1 :]: c}, Window.make({v: wd[v] for v in rest}), True
            )
            if n >= 0:
                cap = n
                tail_exact = True
            else:
                cap = max(-1, min(sec_hi, n - fst_lo))
                tail_exact = False
            expansion = Series(variables, {}, window, tail_exact)
            for k in range(cap + 1):
                coef = binom(n, k) * Q(sign_first) ** ((n - k) % 2) * Q(sign_second) ** (k % 2)
                mono = {}
                e_first, e_second = n - k, k
                key = {first: e_first, second: e_second}
                expt = tuple(key.get(v, 0) for v in variables)
                mono[expt] = coef
                expansion = expansion + Series(variables, mono, window, tail_exact)
            total = total + expansion * rest_mono
        return total


# ---------------------------------------------------------------------------
# certified equality


class Eq(Enum):
    EXACT = "ExactlyEqual"
    WINDOW = "EqualUpToWindow"
    UNEQUAL = "Unequal"


@dataclass(frozen=True)
class EqResult:
    kind: Eq
    witness: tuple | None = None

    def __bool__(self):
        return self.kind is not Eq.UNEQUAL


def window_equal(a, b, rng=None):
    """Certified equality of two Series inside the common window."""
    diff = a - b
    if diff.coeffs:
        witness = min(diff.coeffs)
        return EqResult(Eq.UNEQUAL, witness)
    if a.exact and b.exact and diff.exact:
        return EqResult(Eq.EXACT)
    return EqResult(Eq.WINDOW)


# ---------------------------------------------------------------------------
# the literal syntax  `c@(e1[,e2[,e3]])` joined by `+`


_TERM_RE = re.compile(
    r"^\s*(?P<coeff>-?\d+(?:/\d+)?)\s*(?:@\(\s*(?P<expts>-?\d+(?:\s*,\s*-?\d+)*)\s*\))?\s*$"
)


def parse_series(text, variables, rng=DEFAULT_RANGE):
    """Parse a series literal over the given (sorted) variable tuple."""
    variables = tuple(variables)
    window = Window.uniform(variables, rng)
    text = text.strip()
    if text == "0":
        return Series(variables, {}, window)
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
    return Series(variables, coeffs, window)


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
