"""Nonlocal vertex algebras with finite-dimensional underlying space.

The vertex operator is stored as a SeriesMap sending a pair of basis labels
(u, v) to the vector Y(u,x)v, a Laurent polynomial in the distinguished
variable "x".  All axiom checks report a certified outcome per instance:
an identity can hold exactly, hold on the truncation window only, fail with
a witness, or fail to admit a clearing exponent k below the cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .series import DEFAULT_RANGE, Eq, EqResult, Q, Series, window_equal
from .linalg import SeriesMap, SeriesVector, Space, basis_tuples


DEFAULT_KMAX = 10


class Outcome(Enum):
    EXACT_PASS = "exact-pass"
    WINDOW_PASS = "window-pass"
    FAIL = "fail"
    NO_K_FOUND = "no-k-found"

    @property
    def ok(self):
        return self in (Outcome.EXACT_PASS, Outcome.WINDOW_PASS)


@dataclass
class CheckItem:
    name: str
    outcome: Outcome
    detail: str = ""

    @property
    def ok(self):
        return self.outcome.ok


@dataclass
class CheckReport:
    title: str
    items: list = field(default_factory=list)

    def add(self, name, outcome, detail=""):
        self.items.append(CheckItem(name, outcome, detail))

    def extend(self, other):
        self.items.extend(other.items)

    @property
    def ok(self):
        return all(item.ok for item in self.items)

    @property
    def exact(self):
        return all(item.outcome is Outcome.EXACT_PASS for item in self.items)

    def failures(self):
        return [item for item in self.items if not item.ok]

    def summary(self):
        lines = [f"== {self.title}: {'PASS' if self.ok else 'FAIL'} "
                 f"({len(self.items)} checks)"]
        for item in self.items:
            mark = "ok " if item.ok else "FAIL"
            lines.append(f"  [{mark}] {item.name}: {item.outcome.value}"
                         + (f" ({item.detail})" if item.detail else ""))
        return "\n".join(lines)


def eq_outcome(res):
    if res.kind is Eq.EXACT:
        return Outcome.EXACT_PASS
    if res.kind is Eq.WINDOW:
        return Outcome.WINDOW_PASS
    return Outcome.FAIL


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Nva:
    """A finite-dimensional nonlocal vertex algebra (V, Y, 1)."""

    name: str
    space: Space
    vacuum: str
    y: SeriesMap  # (V, V) -> (V,), series in "x"

    def __post_init__(self):
        assert self.vacuum in self.space.basis
        assert self.y.domain == (self.space, self.space)
        assert self.y.codomain == (self.space,)

    def vacuum_vec(self):
        return SeriesVector.basis((self.space,), (self.vacuum,))

    def vertex(self, u, v):
        """Y(u, x) v for basis labels u, v."""
        return self.y.column((u, v))


@dataclass(frozen=True)
class NvaModule:
    """A module W over a nonlocal vertex algebra."""

    name: str
    algebra: Nva
    space: Space
    yw: SeriesMap  # (V, W) -> (W,), series in "x"

    def __post_init__(self):
        assert self.yw.domain == (self.algebra.space, self.space)
        assert self.yw.codomain == (self.space,)


def adjoint_module(nva):
    return NvaModule(f"{nva.name}.adjoint", nva, nva.space, nva.y)


# ---------------------------------------------------------------------------
# vacuum axioms


def check_vacuum(nva, rng=DEFAULT_RANGE):
    rep = CheckReport(f"{nva.name}: vacuum axioms")
    one = nva.vacuum
    for v in nva.space.basis:
        got = nva.vertex(one, v)
        want = SeriesVector.basis((nva.space,), (v,))
        res = window_equal_vec(got, want)
        rep.add(f"Y(1,x){v} == {v}", eq_outcome(res), witness(res))
    for v in nva.space.basis:
        creation = nva.vertex(v, one)
        poly = all(s.is_polynomial() for s in creation.entries.values())
        limit = creation.transform(lambda s: s.extract("x", 0))
        want = SeriesVector.basis((nva.space,), (v,))
        ok = poly and not (limit - want).entries
        if ok:
            exact = creation.exact()
            rep.add(f"Y({v},x)1 regular with limit {v}",
                    Outcome.EXACT_PASS if exact else Outcome.WINDOW_PASS)
        else:
            rep.add(f"Y({v},x)1 regular with limit {v}", Outcome.FAIL,
                    "negative powers present" if not poly else "wrong limit")
    return rep


def window_equal_vec(a, b, rng=None):
    """Certified equality of SeriesVectors: the worst verdict of
    series.window_equal over the keys of both sides, with the first unequal
    key (in sorted order) and its exponent as the witness."""
    worst = EqResult(Eq.EXACT)
    for key in sorted(set(a.entries) | set(b.entries)):
        res = window_equal(a.get(key), b.get(key))
        if not res:
            return EqResult(Eq.UNEQUAL, (key, res.witness))
        if res.kind is Eq.WINDOW:
            worst = res
    return worst


def witness(res):
    return f"witness {res.witness}" if res.witness is not None else ""


# ---------------------------------------------------------------------------
# weak associativity


def double_product(yw_outer, yw_inner, u, v, w, spaces, var1="x1", var2="x2"):
    """Y(u,var1) Y(v,var2) w as a SeriesVector over the last codomain."""
    vec = SeriesVector.basis(spaces, (u, v, w))
    vec = yw_inner.apply(vec, (1, 2))
    return yw_outer.apply(vec, (0, 1))


def pole_order(vec, var):
    """Smallest k >= 0 with var^k * vec polynomial in var."""
    k = 0
    for s in vec.entries.values():
        if var in s.variables:
            k = max(k, -min(0, s.min_degree(var)))
    return k


def clearing_exponent(vec, var, kmax):
    k = pole_order(vec, var)
    return k if k <= kmax else None


def find_clearing_k(sides, kmax, rng):
    """(k, verdict): the first k <= kmax at which (x1-x2)^k lhs and
    (x1-x2)^k rhs compare equal for every (lhs, rhs) pair in sides, with the
    worst verdict over the pairs; (None, None) when no such k exists.
    (x2-x1)^k differs only by the sign (-1)^k, which changes no verdict,
    so the search serves the identities stated with (x2-x1)^k as well."""
    step = Series.monomial("x1", 1, rng) - Series.monomial("x2", 1, rng)
    factor = Series.const(1)
    for k in range(kmax + 1):
        worst = EqResult(Eq.EXACT)
        for lhs, rhs in sides:
            res = window_equal_vec(lhs.transform(lambda s: s * factor),
                                   rhs.transform(lambda s: s * factor))
            if not res:
                break
            if res.kind is Eq.WINDOW:
                worst = res
        else:
            return k, worst
        factor = factor * step
    return None, None


def check_weak_associativity(nva, rng=DEFAULT_RANGE, kmax=DEFAULT_KMAX):
    """(x0+x2)^k Y(u,x0+x2) Y(v,x2) w == (x0+x2)^k Y(Y(u,x0)v,x2) w."""
    rep = CheckReport(f"{nva.name}: weak associativity")
    rep.extend(weak_associativity_items(
        nva.y, nva.y, (nva.space,) * 3, rng, kmax))
    return rep


def weak_associativity_items(y, yw, spaces, rng, kmax):
    """Shared engine for algebra and module weak associativity: y is the
    algebra's table on V, yw the table of its action on W."""
    rep = CheckReport("weak associativity")
    yx1, yx2, yx0 = yw.at("x1"), yw.at("x2"), y.at("x0")
    for (u, v, w) in basis_tuples(spaces):
        lhs12 = double_product(yx1, yx2, u, v, w, spaces)
        k = clearing_exponent(lhs12, "x1", kmax)
        if k is None:
            rep.add(f"assoc({u},{v},{w})", Outcome.NO_K_FOUND,
                    f"pole order exceeds kmax={kmax}")
            continue
        xk = Series.monomial("x1", k, rng)
        cleared = lhs12.transform(lambda s: s * xk)
        lhs = cleared.transform(
            lambda s: s.substitute_sum("x1", "x0", "x2", rng))
        sumk = Series.monomial("x1", k, rng).substitute_sum(
            "x1", "x0", "x2", rng)
        inner = SeriesVector.basis(spaces, (u, v, w))
        inner = yx0.apply(inner, (0, 1))      # Y(u,x0)v ⊗ w
        rhs0 = yx2.apply(inner, (0, 1))       # Y(Y(u,x0)v,x2) w
        rhs = rhs0.transform(lambda s: s * sumk)
        res = window_equal_vec(lhs, rhs)
        rep.add(f"assoc({u},{v},{w}) k={k}", eq_outcome(res), witness(res))
    return rep


# ---------------------------------------------------------------------------
# the canonical derivation D and its exponential


def compute_D(nva):
    """D(v) = d/dx Y(v,x)1 at x=0, as a SeriesMap (V,) -> (V,)."""
    sp = (nva.space,)
    cols = {}
    for v in nva.space.basis:
        creation = nva.vertex(v, nva.vacuum)
        cols[(v,)] = creation.transform(lambda s: s.extract("x", 1))
    return SeriesMap(sp, sp, cols)


def scalar_of(vec):
    """Constant value of a one-leg SeriesVector known to be x-free."""
    out = {}
    for key, s in vec.entries.items():
        assert not s.variables or all(not any(e) for e in s.coeffs)
        out[key] = s.coeff(() if not s.variables else (0,) * len(s.variables))
    return out


def exp_xD(nva, var="x", rng=DEFAULT_RANGE, dmap=None):
    """e^{var * D} as a SeriesMap (V,) -> (V,); exact when D is nilpotent."""
    import math

    sp = (nva.space,)
    D = compute_D(nva) if dmap is None else dmap
    hi = rng[1]
    cols = {}
    for v in nva.space.basis:
        acc = SeriesVector.zero(sp)
        term = SeriesVector.basis(sp, (v,))
        k = 0
        truncated = False
        while not term.is_zero():
            if k > hi:
                truncated = True
                break
            mono = Series.monomial(var, k, rng, coeff=Q(1, math.factorial(k)))
            acc = acc + term.transform(lambda s, m=mono: s * m)
            term = D.apply(term)
            k += 1
        if truncated:
            acc = acc.transform(
                lambda s: Series(s.variables, s.coeffs, s.window, False))
        cols[(v,)] = acc
    return SeriesMap(sp, sp, cols)


def check_D_bracket(nva, rng=DEFAULT_RANGE):
    """[D, Y(v,x)] == Y(Dv,x) == d/dx Y(v,x) on every pair."""
    rep = CheckReport(f"{nva.name}: D-bracket")
    D = compute_D(nva)
    for (v, u) in basis_tuples((nva.space, nva.space)):
        yvu = nva.vertex(v, u)
        # [D, Y(v,x)]u = D(Y(v,x)u) - Y(v,x)(Du)
        vu = SeriesVector.basis((nva.space, nva.space), (v, u))
        term1 = D.apply(yvu)
        term2 = nva.y.apply(D.apply(vu, (1,)))
        bracket = term1 - term2
        ydv = nva.y.apply(D.apply(vu, (0,)))
        deriv = yvu.transform(lambda s: s.deriv("x"))
        r1 = window_equal_vec(bracket, ydv)
        r2 = window_equal_vec(ydv, deriv)
        rep.add(f"[D,Y({v},x)]{u} == Y(D{v},x){u}", eq_outcome(r1), witness(r1))
        rep.add(f"Y(D{v},x){u} == d/dx Y({v},x){u}", eq_outcome(r2), witness(r2))
    return rep


# ---------------------------------------------------------------------------
# module axioms


def check_module(mod, rng=DEFAULT_RANGE, kmax=DEFAULT_KMAX, form="substituted"):
    """Module axioms for W over V.

    form="original":   (x0+x2)^k Y_W(u,x0+x2) Y_W(v,x2) w
                        == (x0+x2)^k Y_W(Y(u,x0)v, x2) w
    form="substituted": A_k := (x1-x2)^k Y_W(u,x1) Y_W(v,x2) w, require the
                        substitution x1 -> x2+x0 of A_k to be exact
                        (regularity) and A_k|_{x1=x2+x0} == x0^k Y_W(Y(u,x0)v,x2) w.
    """
    nva = mod.algebra
    rep = CheckReport(f"{mod.name}: module axioms ({form})")
    one = nva.vacuum
    for w in mod.space.basis:
        got = mod.yw.column((one, w))
        want = SeriesVector.basis((mod.space,), (w,))
        res = window_equal_vec(got, want)
        rep.add(f"Y_W(1,x){w} == {w}", eq_outcome(res), witness(res))

    spaces = (nva.space, nva.space, mod.space)
    if form == "original":
        rep.extend(weak_associativity_items(nva.y, mod.yw, spaces, rng, kmax))
        return rep

    assert form == "substituted"
    yx1, yx2, yx0 = mod.yw.at("x1"), mod.yw.at("x2"), nva.y.at("x0")
    for (u, v, w) in basis_tuples(spaces):
        prod = double_product(yx1, yx2, u, v, w, spaces)
        k = None
        for kk in range(kmax + 1):
            factor = Series.monomial("x1", 1, rng).substitute_sum(
                "x1", "x1", "x2", rng, 1, -1) ** kk  # (x1-x2)^kk
            ak = prod.transform(lambda s, f=factor: s * f)
            sub = ak.transform(
                lambda s: s.substitute_sum("x1", "x2", "x0", rng))
            if sub.exact():
                k = kk
                break
        if k is None:
            rep.add(f"module({u},{v},{w})", Outcome.NO_K_FOUND,
                    f"no regular k <= {kmax}")
            continue
        inner = SeriesVector.basis(spaces, (u, v, w))
        inner = yx0.apply(inner, (0, 1))
        rhs = yx2.apply(inner, (0, 1))
        x0k = Series.monomial("x0", k, rng)
        rhs = rhs.transform(lambda s: s * x0k)
        res = window_equal_vec(sub, rhs)
        rep.add(f"module({u},{v},{w}) k={k}", eq_outcome(res), witness(res))
    return rep

