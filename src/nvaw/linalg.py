"""Finite-dimensional spaces, series-valued vectors and maps, exact solving.

A SeriesMap sends each basis tuple of its domain spaces to a SeriesVector
over its codomain spaces; entries are Series over Q (or with LinExpr
coefficients while unknowns are being solved for).  Maps are applied to
selected tensor legs of a vector, which is how all the multi-variable
identities are composed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q

from .series import LinExpr, Series


@dataclass(frozen=True)
class Space:
    name: str
    basis: tuple

    def __post_init__(self):
        assert len(set(self.basis)) == len(self.basis), f"duplicate labels in {self.name}"

    def __len__(self):
        return len(self.basis)

    def index(self, label):
        return self.basis.index(label)


def basis_tuples(spaces):
    """All basis-label tuples of a tensor product of spaces, in order."""
    out = [()]
    for sp in spaces:
        out = [t + (b,) for t in out for b in sp.basis]
    return out


class SeriesVector:
    """Element of (tensor product of spaces) with Series coefficients."""

    __slots__ = ("spaces", "entries")

    def __init__(self, spaces, entries):
        self.spaces = tuple(spaces)
        self.entries = {}
        for key, s in entries.items():
            key = tuple(key)
            assert len(key) == len(self.spaces)
            # a zero that lost coefficients to clipping still says so
            if not s.is_zero() or not s.exact:
                self.entries[key] = s

    @staticmethod
    def zero(spaces):
        return SeriesVector(spaces, {})

    @staticmethod
    def basis(spaces, labels, series=None):
        s = Series.const(1) if series is None else series
        return SeriesVector(spaces, {tuple(labels): s})

    def get(self, key):
        return self.entries.get(tuple(key), Series.zero())

    def is_zero(self):
        return not self.entries

    def exact(self):
        return all(s.exact for s in self.entries.values())

    def __add__(self, other):
        assert self.spaces == other.spaces, (self.spaces, other.spaces)
        out = dict(self.entries)
        for key, s in other.entries.items():
            out[key] = out[key] + s if key in out else s
        return SeriesVector(self.spaces, out)

    def __neg__(self):
        return SeriesVector(self.spaces, {k: -s for k, s in self.entries.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return SeriesVector(self.spaces, {k: s.scale(c) for k, s in self.entries.items()})

    def transform(self, fn):
        """Apply fn to every Series entry (substitutions, var renames...)."""
        return SeriesVector(self.spaces, {k: fn(s) for k, s in self.entries.items()})

    def tensor(self, other):
        out = {}
        for k1, s1 in self.entries.items():
            for k2, s2 in other.entries.items():
                out[k1 + k2] = s1 * s2
        return SeriesVector(self.spaces + other.spaces, out)

    def permute(self, perm):
        """Reorder tensor legs: new leg i is old leg perm[i]."""
        spaces = tuple(self.spaces[p] for p in perm)
        out = {tuple(k[p] for p in perm): s for k, s in self.entries.items()}
        return SeriesVector(spaces, out)

    def __repr__(self):
        from .series import format_series

        names = "⊗".join(sp.name for sp in self.spaces) or "Q"
        body = "; ".join(
            f"{k}: {format_series(s)}" for k, s in sorted(self.entries.items())
        )
        return f"<{names} | {body or '0'}>"


class SeriesMap:
    """Linear map (tensor of domain spaces) -> (tensor of codomain spaces)
    with Series-valued matrix entries."""

    __slots__ = ("domain", "codomain", "columns")

    def __init__(self, domain, codomain, columns):
        self.domain = tuple(domain)
        self.codomain = tuple(codomain)
        self.columns = {}
        for key, vec in columns.items():
            key = tuple(key)
            assert len(key) == len(self.domain)
            assert vec.spaces == self.codomain, (vec.spaces, self.codomain)
            if not vec.is_zero():
                self.columns[key] = vec

    @staticmethod
    def identity(spaces):
        spaces = tuple(spaces)
        cols = {t: SeriesVector.basis(spaces, t) for t in basis_tuples(spaces)}
        return SeriesMap(spaces, spaces, cols)

    @staticmethod
    def permutation(spaces, perm):
        """Map sending leg i to output slot perm.index(i); columns are the
        permuted basis vectors (output leg j carries input leg perm[j])."""
        spaces = tuple(spaces)
        codomain = tuple(spaces[p] for p in perm)
        cols = {
            t: SeriesVector.basis(codomain, tuple(t[p] for p in perm))
            for t in basis_tuples(spaces)
        }
        return SeriesMap(spaces, codomain, cols)

    @staticmethod
    def flip(a, b):
        return SeriesMap.permutation((a, b), (1, 0))

    def column(self, key):
        return self.columns.get(tuple(key), SeriesVector.zero(self.codomain))

    def transform(self, fn):
        return SeriesMap(
            self.domain, self.codomain, {k: v.transform(fn) for k, v in self.columns.items()}
        )

    def at(self, var):
        """The map with its series variable "x" renamed to var."""
        if var == "x":
            return self
        return self.transform(lambda s: s.rename({"x": var}))

    def __add__(self, other):
        assert self.domain == other.domain and self.codomain == other.codomain
        out = dict(self.columns)
        for k, v in other.columns.items():
            out[k] = out[k] + v if k in out else v
        return SeriesMap(self.domain, self.codomain, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return SeriesMap(
            self.domain, self.codomain, {k: v.scale(c) for k, v in self.columns.items()}
        )

    def apply(self, vec, legs=None):
        """Apply to the given contiguous legs of vec (all legs by default).

        The map's domain must match the selected legs; its codomain splices
        in at the first selected position.
        """
        n = len(vec.spaces)
        if legs is None:
            legs = tuple(range(n))
        legs = tuple(legs)
        assert legs == tuple(range(legs[0], legs[0] + len(legs))), f"legs not contiguous: {legs}"
        sel = tuple(vec.spaces[i] for i in legs)
        assert sel == self.domain, (sel, self.domain)
        lo, hi = legs[0], legs[-1] + 1
        out_spaces = vec.spaces[:lo] + self.codomain + vec.spaces[hi:]
        acc = SeriesVector.zero(out_spaces)
        for key, s in vec.entries.items():
            col = self.column(key[lo:hi])
            for ckey, cs in col.entries.items():
                piece = SeriesVector(
                    out_spaces, {key[:lo] + ckey + key[hi:]: s * cs}
                )
                acc = acc + piece
        return acc

    def compose(self, inner):
        """self ∘ inner."""
        assert inner.codomain == self.domain
        cols = {k: self.apply(v) for k, v in inner.columns.items()}
        return SeriesMap(inner.domain, self.codomain, cols)

    def tensor(self, other):
        cols = {}
        for k1, v1 in self.columns.items():
            for k2, v2 in other.columns.items():
                cols[k1 + k2] = v1.tensor(v2)
        return SeriesMap(self.domain + other.domain, self.codomain + other.codomain, cols)

    def on_legs(self, spaces, legs):
        """Extend to identity on the other legs of the given space list."""
        spaces = tuple(spaces)
        legs = tuple(legs)
        cols = {}
        for t in basis_tuples(spaces):
            vec = SeriesVector.basis(spaces, t)
            cols[t] = self.apply(vec, legs)
        lo = legs[0]
        codomain = spaces[:lo] + self.codomain + spaces[legs[-1] + 1 :]
        return SeriesMap(spaces, codomain, cols)

    def __repr__(self):
        dom = "⊗".join(sp.name for sp in self.domain) or "Q"
        cod = "⊗".join(sp.name for sp in self.codomain) or "Q"
        return f"SeriesMap({dom} -> {cod}, {len(self.columns)} columns)"


# ---------------------------------------------------------------------------
# exact linear solving over Q


@dataclass
class UniqueSolution:
    assignment: dict


@dataclass
class Underdetermined:
    rank: int
    free: list
    particular: dict


@dataclass
class Inconsistent:
    witness: tuple  # (key, exponent) location of a contradictory equation


def _row_reduce(rows, ncols, tags=None):
    """Gauss-Jordan elimination in place on the first ncols columns of a
    dense list-of-lists matrix over Q; returns the pivot columns.

    Pivots are taken column by column, each from the first row at or below
    the current one with a nonzero entry; rows (and their tags, if given)
    are swapped into place.  Stops once every row holds a pivot.
    """
    m = len(rows)
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        if tags is not None:
            tags[r], tags[piv] = tags[piv], tags[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        if len(pivots) == m:
            break
    return pivots


def solve_linear(pairs, unknowns):
    """Solve lhs == rhs for LinExpr unknowns appearing in SeriesVector pairs.

    pairs: iterable of (SeriesVector, SeriesVector); every coefficient match
    across basis keys and exponents yields one affine equation.
    """
    unknowns = list(unknowns)
    col = {u: i for i, u in enumerate(unknowns)}
    rows = []
    tags = []
    seen = set()
    for lhs, rhs in pairs:
        diff = lhs - rhs
        for key, s in diff.entries.items():
            for expt, c in s.coeffs.items():
                e = LinExpr.promote(c)
                row = [Q(0)] * len(unknowns)
                for sym, v in e.terms.items():
                    row[col[sym]] = v
                sig = (tuple(row), e.const)
                if sig in seen:
                    continue
                seen.add(sig)
                rows.append(row + [-e.const])
                tags.append((key, expt))

    n = len(unknowns)
    pivots = _row_reduce(rows, n, tags)
    for i in range(len(pivots), len(rows)):
        if not any(x != 0 for x in rows[i][:n]) and rows[i][n] != 0:
            return Inconsistent(tags[i])

    assignment = {unknowns[c]: rows[i][n] for i, c in enumerate(pivots)}
    if len(pivots) == n:
        return UniqueSolution(assignment)
    free = [u for j, u in enumerate(unknowns) if j not in pivots]
    particular = {u: assignment.get(u, Q(0)) for u in unknowns}
    return Underdetermined(len(pivots), free, particular)


def matrix_rank(rows):
    """Rank of a dense list-of-lists matrix over Q."""
    rows = [list(map(Q, r)) for r in rows]
    if not rows:
        return 0
    return len(_row_reduce(rows, len(rows[0])))


def matrix_inverse(rows):
    """Inverse of a square matrix over Q, or None if singular."""
    n = len(rows)
    aug = [list(map(Q, r)) + [Q(1) if j == i else Q(0) for j in range(n)]
           for i, r in enumerate(rows)]
    if len(_row_reduce(aug, n)) < n:
        return None
    return [r[n:] for r in aug]
