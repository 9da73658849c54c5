"""Golden report: the verdicts of a 42-call command-line sweep are frozen.

The sweep is the benchmark's command-line sweep (bench/workloads.py) run on
the registry instances themselves, in process: every suite on every
registry algebra, twist, S-map and smash datum, the product and smash
constructions checked again from their output files, and both extraction
commands.  For each call the golden file records the exit status, the
number of identities, the count of each verdict, the SHA-256 of the
`--json` payload and every item whose verdict is not EXACT_PASS, verbatim.

A refactor must leave this report unchanged.  Regenerate the file only for
a change meant to move verdicts, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import functools
import hashlib
import io
import json
import tempfile
from collections import Counter
from pathlib import Path

from nvaw.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_report.json"
TOTAL_IDENTITIES = 7330


def sweep_argvs():
    """The 42 command lines, in a fixed order; "$TMP" names the scratch
    directory that product and smash outputs go to."""
    calls = []
    for alg in ("E1", "E1n", "E2", "Z2"):
        calls.append(["check", alg, "--suite", "nva"])
        calls.append(["check", alg, "--suite", "module"])
    for u, twist in (("E1", "flip:E1,E1"), ("E1n", "flip:E1n,E1n"),
                     ("E2", "flip:E2,E2"), ("Z2", "flip:Z2,Z2"),
                     ("E1", "flip:E1,E2"), ("Z2", "sign:Z2,Z2")):
        calls.append(["check", u, "--suite", "twist", "--twist", twist])
        calls.append(["check", u, "--suite", "product-props", "--twist", twist])
    for alg, smap in (("E1", "id:E1"), ("E1", "sign:E1"), ("E2", "id:E2"),
                      ("Z2", "id:Z2")):
        calls.append(["check", alg, "--suite", "qva", "--smap", smap])
    for datum in ("z2-sign", "z2-trivial"):
        calls.append(["check", datum, "--suite", "smash"])
    for u, v, twist in (("E1", "E1", "flip:E1,E1"), ("E2", "E2", "flip:E2,E2"),
                        ("Z2", "Z2", "flip:Z2,Z2"), ("Z2", "Z2", "sign:Z2,Z2")):
        out = f"$TMP/product-{twist.replace(':', '-')}.nva"
        calls.append(["product", u, v, "--twist", twist, "-o", out])
        calls.append(["check", out, "--suite", "nva"])
        if twist == "sign:Z2,Z2":
            calls.append(["extract-twist", out, "--u", "(one,one),(g,one)",
                          "--v", "(one,one),(one,g)"])
    for datum in ("z2-sign", "z2-trivial"):
        out = f"$TMP/smash-{datum}.nva"
        calls.append(["smash", datum, datum, "-o", out])
        calls.append(["check", out, "--suite", "nva"])
    for alg in ("E1", "E2", "Z2"):
        calls.append(["extract-smap", alg])
    return calls


@functools.cache
def run_sweep():
    """([record], [payload]) for the sweep, one record and one `--json`
    payload per call; run once and shared by the tests that read it."""
    records, payloads = [], []
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "report.json"
        for argv in sweep_argvs():
            args = [a.replace("$TMP", tmp) for a in argv]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(args + ["--json", str(report)])
            payload = report.read_bytes() if report.exists() else b"[]"
            report.unlink(missing_ok=True)
            items = json.loads(payload)
            payloads.append(payload)
            records.append({
                "argv": " ".join(argv),
                "exit": code,
                "items": len(items),
                "verdicts": dict(sorted(Counter(
                    i["verdict"] for i in items).items())),
                "sha256": hashlib.sha256(payload).hexdigest(),
                "not_exact": [[i["identity"], i["verdict"], i["detail"]]
                              for i in items if i["verdict"] != "EXACT_PASS"],
            })
    return records, payloads


def test_sweep_matches_the_golden_report():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got, _ = run_sweep()
    assert len(got) == len(golden) == 42
    assert sum(r["items"] for r in golden) == TOTAL_IDENTITIES
    for want, have in zip(golden, got):
        assert have == want, want["argv"]


# The repeated names of the sweep, by suite: the name prefixes that may
# repeat within one call, and the number of repeats over all calls.
# check_product_nva lists the items of check_embeddings and the
# product-props suite adds them again (73 repeats over 6 calls); the qva
# suite adds the S-skew items of check_S_skew and check_qva_axioms adds them
# again (21 repeats over 4 calls).
KNOWN_REPEATS = {"product-props": (("U⊗1 hom", "1⊗V hom"), 73),
                 "qva": (("S-skew(",), 21)}


def test_no_identity_is_listed_twice_but_the_two_known_repeats():
    _, payloads = run_sweep()
    repeats = Counter()
    for argv, payload in zip(sweep_argvs(), payloads):
        suite = argv[argv.index("--suite") + 1] if "--suite" in argv else None
        names = Counter(i["identity"] for i in json.loads(payload))
        for name, n in names.items():
            if n > 1:
                prefixes, _ = KNOWN_REPEATS.get(suite, ((), 0))
                assert name.startswith(prefixes), (" ".join(argv), name)
                repeats[suite] += n - 1
    for suite, (_, most) in KNOWN_REPEATS.items():
        assert repeats[suite] <= most, suite


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(run_sweep()[0], indent=1, ensure_ascii=False)
                      + "\n", encoding="utf-8")
