"""The three benchmark workloads.

`SETUPS[name](seed, workdir)` builds a workload's inputs from the seed and
returns a Plan.  An operation is one public call a researcher waits on;
`Op.run()` returns the identities it reported as [(name, verdict, detail)],
which are checked against `expected`.
"""

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import expected
import inputs
from nvaw import products
from nvaw.fileformat import emit_nva
from nvaw.linalg import UniqueSolution
from nvaw.registry import make_e1, make_e1n, make_e2, make_z2

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Op:
    label: str
    run: object  # () -> [(name, verdict, detail)]
    expect: expected.Expect


@dataclass
class Plan:
    ops: list
    size: dict  # input size, as reported with the results
    speed_exponent: float  # see SPEED_EXPONENT
    runner: object = None  # CliRunner of the command-line sweep
    total: int | None = None  # identities a pass must report in all


# How strongly each workload's speed follows the speed probe's kernel
# (speed.py) when the host's speed changes: the slope of log(raw pass time)
# against -log(kernel time), fitted over ten runs of each workload on the
# host the benchmark was defined on (47, 20 and 30 passes).  With it the
# quartile spread of pass times at reference speed was 3.9%, 2.5% and 3.9%;
# with an exponent of 1 it was 8.6%, 2.4% and 11.7%.
SPEED_EXPONENT = {"assoc-triple": 0.75, "extract": 1.0, "registry-cli": 0.5}


def report_items(rep):
    return [(i.name, i.outcome.name, i.detail) for i in rep.items]


# ---------------------------------------------------------------------------
# assoc-triple: check_product_nva on the 27-dimensional (E2 ⊗ E2) ⊗ E2


def assoc_triple(seed, workdir):
    p = inputs.triple_product(seed)
    n = len(p.nva.space.basis)
    op = Op("check_product_nva((E2xE2)xE2)",
            lambda: report_items(products.check_product_nva(p)),
            expected.ASSOC_TRIPLE)
    return Plan([op], {"dim": n, "identities": op.expect.count,
                       "associativity_triples": n ** 3},
                SPEED_EXPONENT["assoc-triple"])


# ---------------------------------------------------------------------------
# extract: extract_twisting on Z2⊗Z2 (sign), E1⊗E2 and E2⊗E2 (flip)


def _extraction(p):
    u_labels, v_labels = inputs.factor_labels(p)
    # through the module, so that a traced run sees the wrapped function
    res = products.extract_twisting(p.nva, u_labels, v_labels)
    solved = isinstance(res.solve, UniqueSolution)
    items = [("linear solve", expected.EXACT if solved else expected.FAIL,
              type(res.solve).__name__)]
    for sub in (res.axioms, res.theta, res.z2):
        if sub is not None:
            items += report_items(sub)
    return items


def extract(seed, workdir):
    ops, size = [], {}
    for name, p in inputs.extraction_hosts(seed):
        ops.append(Op(f"extract_twisting({name})", lambda p=p: _extraction(p),
                      expected.EXTRACT[name]))
        m, n = len(p.first.space.basis), len(p.second.space.basis)
        size[name] = {"dim": m * n, "unknowns": 5 * (m * n) ** 2,
                      "identities": expected.EXTRACT[name].count}
    return Plan(ops, size, SPEED_EXPONENT["extract"])


# ---------------------------------------------------------------------------
# registry-cli: a sweep of fresh `python -m nvaw.cli` processes


class CliRunner:
    """Runs one nvaw command line per call as a fresh process.

    Untraced, the child is `python -m nvaw.cli`, as a user runs it.  Traced,
    it is bench/cli_child.py, which times `import nvaw.cli`, wraps the
    public functions and writes its span aggregates to a file.
    """

    def __init__(self, workdir):
        self.workdir = Path(workdir)
        self.traced = False
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.children = []  # per traced call: the record cli_child wrote

    def __call__(self, argv):
        """Run `nvaw ARGV`; returns (exit status, reported items, stderr)."""
        out = self.workdir / "report.json"
        args = list(argv) + ["--json", str(out)]
        if self.traced:
            trace = self.workdir / "trace.json"
            cmd = [sys.executable, str(ROOT / "bench" / "cli_child.py"),
                   str(trace)] + args
        else:
            cmd = [sys.executable, "-m", "nvaw.cli"] + args
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=120)
        wall = time.perf_counter() - start
        if self.traced and trace.exists():
            child = json.loads(trace.read_text(encoding="utf-8"))
            child["startup_s"] = wall - child.pop("elapsed_s")
            self.children.append(child)
            trace.unlink()
        items = []
        if out.exists():
            items = [(r["identity"], r["verdict"], r["detail"])
                     for r in json.loads(out.read_text(encoding="utf-8"))]
            out.unlink()
        return proc.returncode, items, proc.stderr


def _cli_op(runner, argv, expect, writes=None):
    def run():
        if writes is not None and os.path.exists(writes):
            os.unlink(writes)
        code, items, err = runner(argv)
        if code != expect.exit_code:
            items.append(("exit status", "FAIL",
                          f"{code}, expected {expect.exit_code}: {err.strip()}"))
        if writes is not None and not os.path.exists(writes):
            items.append(("output file", "FAIL", f"{writes} not written"))
        return items
    return Op(" ".join(argv), run, expect)


def _sweep_chains(workdir, runner, rand):
    """The 42 calls as chains; a chain keeps calls that read a file written
    earlier in the chain in order."""
    E, X = expected, expected.Expect
    algs = {"E1": make_e1, "E1n": make_e1n, "E2": make_e2, "Z2": make_z2}
    files = {}
    for name, make in algs.items():
        files[name] = str(Path(workdir) / f"{name}.nva")
        with open(files[name], "w", encoding="utf-8") as fh:
            fh.write(emit_nva(inputs.rescaled(make, rand)))

    def op(argv, expect, **kw):
        return _cli_op(runner, argv, expect, **kw)

    chains = []
    for name, n in E.DIMS.items():
        chains.append([op(["check", files[name], "--suite", "nva"],
                          X(E.nva_suite(n), exit_code=0))])
        chains.append([op(["check", files[name], "--suite", "module"],
                          X(E.module_suite(n), exit_code=0))])
    twists = (("E1", "E1", "flip:E1,E1"), ("E1n", "E1n", "flip:E1n,E1n"),
              ("E2", "E2", "flip:E2,E2"), ("Z2", "Z2", "flip:Z2,Z2"),
              ("E1", "E2", "flip:E1,E2"), ("Z2", "Z2", "sign:Z2,Z2"))
    for u, v, twist in twists:
        m, p = E.DIMS[u], E.DIMS[v]
        chains.append([op(["check", u, "--suite", "twist", "--twist", twist],
                          X(E.twist_axioms(m, p), exit_code=0))])
        chains.append([op(["check", u, "--suite", "product-props",
                           "--twist", twist], X(None, exit_code=0))])
    for alg, smap in (("E1", "id:E1"), ("E1", "sign:E1"), ("E2", "id:E2"),
                      ("Z2", "id:Z2")):
        chains.append([op(["check", alg, "--suite", "qva", "--smap", smap],
                          X(None, exit_code=0))])
    for datum in ("z2-sign", "z2-trivial"):
        chains.append([op(["check", datum, "--suite", "smash"],
                          X(None, exit_code=0))])
    for u, v, twist in (("E1", "E1", "flip:E1,E1"), ("E2", "E2", "flip:E2,E2"),
                        ("Z2", "Z2", "flip:Z2,Z2"), ("Z2", "Z2", "sign:Z2,Z2")):
        m, p = E.DIMS[u], E.DIMS[v]
        out = str(Path(workdir) / f"product-{twist.replace(':', '-')}.nva")
        chain = [
            op(["product", files[u], files[v], "--twist", twist, "-o", out],
               X(E.product_check(m, p), exit_code=0), writes=out),
            op(["check", out, "--suite", "nva"],
               X(E.nva_suite(m * p), exit_code=0)),
        ]
        if twist == "sign:Z2,Z2":
            labels = ("(one,one),(g,one)", "(one,one),(one,g)")
            chain.append(op(["extract-twist", out, "--u", labels[0],
                             "--v", labels[1]],
                            X(E.extraction(2, 2), E.Z2_KERNEL["Z2xZ2"],
                              exit_code=0)))
        chains.append(chain)
    for datum in ("z2-sign", "z2-trivial"):
        out = str(Path(workdir) / f"smash-{datum}.nva")
        chains.append([
            op(["smash", datum, datum, "-o", out],
               X(E.product_check(2, 2), exit_code=0), writes=out),
            op(["check", out, "--suite", "nva"],
               X(E.nva_suite(4), exit_code=0)),
        ])
    for alg in ("E1", "E2", "Z2"):
        chains.append([op(["extract-smap", alg],
                          X(2, dict(E.UNDERDETERMINED, **E.Z2_KERNEL[alg]),
                            exit_code=1))])
    return chains


def registry_cli(seed, workdir):
    rand = random.Random(seed)
    runner = CliRunner(workdir)
    chains = _sweep_chains(workdir, runner, rand)
    rand.shuffle(chains)
    ops = [o for chain in chains for o in chain]
    return Plan(ops, {"calls": len(ops),
                      "identities": expected.REGISTRY_CLI_TOTAL},
                SPEED_EXPONENT["registry-cli"], runner,
                expected.REGISTRY_CLI_TOTAL)


SETUPS = {"assoc-triple": assoc_triple, "extract": extract,
          "registry-cli": registry_cli}
