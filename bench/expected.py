"""Expected verdicts, written from the mathematics rather than recorded.

Every input the benchmark generates is a registry instance, a diagonal
rescaling of one (an isomorphic algebra), or a product built from those.
Each identity on such an input holds exactly, so its expected verdict is
EXACT_PASS.  The exceptions are the documented honest failures (README,
"Known honest failure"):

* the degree-two injectivity kernel is nonzero on every instance
  ("Z2 kernel rank 0" fails with the rank stated below);
* `extract-smap` reports `Underdetermined` on every registry algebra.

These count as expected verdicts.  Any other verdict, a missing or extra
identity, or a wrong identity count is a mismatch.

Identity counts follow from the dimensions, by the suites' definitions:

* vacuum axioms on dim n: 2n (Y(1,x)v and the creation property per v);
* weak associativity: n^3 triples; D-bracket: 2 n^2 (two identities a pair);
* module suite on the adjoint module: n (vacuum) + n^3 (triples);
* product check of U ⊗ V with dims (m, p), n = m p: the suite above on the
  product plus the two embeddings' homomorphism identities m^2 + p^2;
* twisting axioms for (U, V) of dims (m, p): p + m vacuum normalisations,
  p m^2 right hexagons and p^2 m left hexagons;
* a twist extraction reports the linear solve, the axioms of the solved
  twist, theta bijectivity and the Z2 kernel.
"""

from dataclasses import dataclass, field

EXACT = "EXACT_PASS"
FAIL = "FAIL"


def z2_kernel(columns, rank):
    """The honest failure of the degree-two injectivity check."""
    return {"Z2 kernel rank 0": (
        FAIL, f"columns {columns}, rank {rank}, kernel {columns - rank}, "
              "monomial window (-1, 1)")}


# Ranks of the degree-two injectivity matrix (README and criterion 6 of the
# acceptance suite); columns are dim^2 basis pairs times 9 monomials.
Z2_KERNEL = {
    "Z2xZ2": z2_kernel(144, 36),
    "E1xE2": z2_kernel(324, 64),
    "E2xE2": z2_kernel(729, 111),
    "E1": z2_kernel(36, 18),
    "E2": z2_kernel(81, 32),
    "Z2": z2_kernel(36, 18),
}
UNDERDETERMINED = {"columnwise solve": (FAIL, "Underdetermined")}

DIMS = {"E1": 2, "E1n": 3, "E2": 3, "Z2": 2}


def nva_suite(n):
    return 2 * n + n ** 3 + 2 * n ** 2


def module_suite(n):
    return n + n ** 3


def product_check(m, p):
    return nva_suite(m * p) + m ** 2 + p ** 2


def twist_axioms(m, p):
    return p + m + p * m ** 2 + p ** 2 * m


def extraction(m, p):
    return 1 + twist_axioms(m, p) + 1 + 1


@dataclass
class Expect:
    """What one operation must report.

    count: number of identities, or None where no dimension formula is
    written down (those operations are covered by the sweep total).
    failures: identity name -> (verdict, detail) for the honest failures;
    every other identity must be EXACT_PASS.
    exit_code: for command-line operations, the expected exit status.
    """

    count: int | None
    failures: dict = field(default_factory=dict)
    exit_code: int | None = None


# (E2 ⊗ E2) ⊗ E2: dims (9, 3), 21,285 identities, 19,683 of them triples.
ASSOC_TRIPLE = Expect(product_check(9, 3))

EXTRACT = {
    "Z2xZ2-sign": Expect(extraction(2, 2), Z2_KERNEL["Z2xZ2"]),
    "E1xE2-flip": Expect(extraction(2, 3), Z2_KERNEL["E1xE2"]),
    "E2xE2-flip": Expect(extraction(3, 3), Z2_KERNEL["E2xE2"]),
}

# Identities over the whole command-line sweep (42 calls).
REGISTRY_CLI_TOTAL = 7330


def mismatches(items, expect):
    """Differences between reported items [(name, verdict, detail)] and the
    expectation; empty when the operation reported what it must."""
    out = []
    if expect.count is not None and len(items) != expect.count:
        out.append(f"{len(items)} identities, expected {expect.count}")
    seen = set()
    for name, verdict, detail in items:
        if name in expect.failures:
            seen.add(name)
            want = expect.failures[name]
            if (verdict, detail) != want:
                out.append(f"{name}: {verdict} ({detail}), expected "
                           f"{want[0]} ({want[1]})")
        elif verdict != EXACT:
            out.append(f"{name}: {verdict} ({detail}), expected {EXACT}")
    for name in expect.failures:
        if name not in seen:
            out.append(f"{name}: missing, expected {expect.failures[name][0]}")
    return out
