"""Seeded inputs for the benchmark workloads.

The seed never reaches nvaw itself: it only picks the rescaling of each
registry algebra and, for the command-line sweep, the order of the calls.

A rescaling multiplies every non-vacuum basis vector by a nonzero small
rational and keeps the vacuum fixed.  It is applied through the public map
algebra as Y' = P^-1 ∘ Y ∘ (P ⊗ P), so the rescaled algebra is isomorphic to
the original one and every verdict, rank and solve type stays the same.  A
diagonal P keeps the tables as sparse as the originals, so the cost of a
check depends little on the seed (a dense basis change would not).
"""

import random
from fractions import Fraction

from nvaw import registry
from nvaw.linalg import SeriesMap, SeriesVector
from nvaw.nva import Nva
from nvaw.products import build_twisted_tensor
from nvaw.series import Series
from nvaw.twist import flip_twist

# Nonzero rationals with numerator and denominator at most 3.
FACTORS = tuple(
    sign * Fraction(n, d)
    for sign in (1, -1) for n in (1, 2, 3) for d in (1, 2, 3)
    if Fraction(n, d).denominator == d
)


def rescaling(nva, rand):
    """Diagonal factors {label: c}, c = 1 on the vacuum."""
    return {lbl: (Fraction(1) if lbl == nva.vacuum else rand.choice(FACTORS))
            for lbl in nva.space.basis}


def _diagonal(space, factors):
    return SeriesMap((space,), (space,), {
        (lbl,): SeriesVector((space,), {(lbl,): Series.const(c)})
        for lbl, c in factors.items()
    })


def rescale(nva, factors):
    """The algebra with table P^-1 ∘ Y ∘ (P ⊗ P), P = diag(factors)."""
    p = _diagonal(nva.space, factors)
    p_inv = _diagonal(nva.space, {k: 1 / c for k, c in factors.items()})
    y = p_inv.compose(nva.y.compose(p.tensor(p)))
    return Nva(nva.name, nva.space, nva.vacuum, y)


def rescaled(make, rand):
    nva = make()
    return rescale(nva, rescaling(nva, rand))


def factor_labels(p):
    """Basis labels of U ⊗ 1 and 1 ⊗ V inside a product algebra."""
    u = [p.pair(a, p.second.vacuum) for a in p.first.space.basis]
    v = [p.pair(p.first.vacuum, b) for b in p.second.space.basis]
    return u, v


def triple_product(seed):
    """(E2 ⊗ E2) ⊗ E2 with flip twists, each factor rescaled on its own."""
    rand = random.Random(seed)
    a, b, c = (rescaled(registry.make_e2, rand) for _ in range(3))
    ab = build_twisted_tensor(a, b, flip_twist(a, b))
    return build_twisted_tensor(ab.nva, c, flip_twist(ab.nva, c))


def extraction_hosts(seed):
    """[(name, product)] for Z2⊗Z2 (sign twist), E1⊗E2 and E2⊗E2 (flip)."""
    rand = random.Random(seed)
    z2a, z2b = rescaled(registry.make_z2, rand), rescaled(registry.make_z2, rand)
    sign = registry.graded_sign_twist(
        z2a, z2b, registry.Z2_GRADING, registry.Z2_GRADING)
    e1 = rescaled(registry.make_e1, rand)
    e2a, e2b = rescaled(registry.make_e2, rand), rescaled(registry.make_e2, rand)
    return [
        ("Z2xZ2-sign", build_twisted_tensor(z2a, z2b, sign)),
        ("E1xE2-flip", build_twisted_tensor(e1, e2a, flip_twist(e1, e2a))),
        ("E2xE2-flip", build_twisted_tensor(e2a, e2b, flip_twist(e2a, e2b))),
    ]
