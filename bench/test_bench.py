"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import expected  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from nvaw.fileformat import emit_nva  # noqa: E402


def tables(products):
    return [emit_nva(p.nva) for p in products]


def test_seed_fixes_the_inputs(tmp_path):
    assert tables([inputs.triple_product(7)]) == tables([inputs.triple_product(7)])
    assert tables([inputs.triple_product(7)]) != tables([inputs.triple_product(8)])
    hosts = [tables(p for _, p in inputs.extraction_hosts(s)) for s in (7, 7, 8)]
    assert hosts[0] == hosts[1] != hosts[2]

    def sweep(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        plan = workloads.registry_cli(seed, d)
        files = {f.name: f.read_text() for f in sorted(d.glob("*.nva"))}
        # labels name the files by directory; compare them without it
        return [op.label.replace(str(d), "") for op in plan.ops], files

    assert sweep(7, "a") == sweep(7, "b")
    assert sweep(7, "c") != sweep(8, "d")


def test_rescaling_keeps_the_vacuum_and_the_verdicts():
    import random

    from nvaw.nva import check_vacuum, check_weak_associativity
    from nvaw.registry import make_e2

    e2, orig = inputs.rescaled(make_e2, random.Random(3)), make_e2()
    col = ("one", "s")
    assert e2.y.column(col).entries == orig.y.column(col).entries
    assert emit_nva(e2) != emit_nva(orig)
    for rep in (check_vacuum(e2), check_weak_associativity(e2)):
        assert all(i.outcome.name == expected.EXACT for i in rep.items)


def test_mismatches_catch_a_flipped_verdict():
    items = [("linear solve", "EXACT_PASS", "UniqueSolution")]
    items += [(f"axiom {i}", "EXACT_PASS", "") for i in range(20)]
    items += [("theta", "EXACT_PASS", "")]
    items += [(name, verdict, detail)
              for name, (verdict, detail) in expected.Z2_KERNEL["Z2xZ2"].items()]
    want = expected.EXTRACT["Z2xZ2-sign"]
    assert expected.mismatches(items, want) == []
    flipped = list(items)
    flipped[3] = ("axiom 2", "WINDOW_PASS", "")
    assert expected.mismatches(flipped, want)
    assert expected.mismatches(items[:-1], want)  # honest failure missing
    assert expected.mismatches(items[1:], want)  # one identity short


def _copy_checkout(dest, with_src=True):
    shutil.copytree(BENCH, dest / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def _run(checkout, workload="registry-cli"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=170)


def test_flipped_expected_verdict_fails_the_command(tmp_path):
    _copy_checkout(tmp_path)
    path = tmp_path / "bench" / "expected.py"
    text = path.read_text()
    flipped = text.replace('UNDERDETERMINED = {"columnwise solve": (FAIL,',
                           'UNDERDETERMINED = {"columnwise solve": (EXACT,')
    assert flipped != text
    path.write_text(flipped)
    proc = _run(tmp_path)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 3  # extract-smap on E1, E2 and Z2
    assert "MISMATCH extract-smap" in proc.stdout


def test_without_sources_the_command_fails_without_a_result(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    proc = _run(tmp_path)
    assert proc.returncode not in (0, 1)
    assert "correct" not in proc.stdout


def _bindings():
    """Every attribute of the traced nvaw modules and of the classes that
    own traced methods."""
    owners = tracer.nvaw_modules()
    owners += [getattr(m, a.split(".")[0]) for m in owners
               for (mod, a, _) in tracer.TARGETS
               if mod == m.__name__ and "." in a]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_wraps_every_alias_and_restores_it():
    from nvaw import linalg, products, series

    before = _bindings()
    t = tracer.Tracer()
    with t:
        assert hasattr(linalg.solve_linear, "__wrapped__")
        assert products.solve_linear is linalg.solve_linear
        assert series.Series.__radd__ is series.Series.__add__
        assert hasattr(series.Series.__mul__, "__wrapped__")
        changed = {k for k, v in _bindings().items() if before[k] is not v}
        assert len(changed) == len(t._saved) > len(tracer.TARGETS)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_spans_reach_calls_inside_extraction():
    from nvaw import products

    name, p = inputs.extraction_hosts(1)[0]
    t = tracer.Tracer()
    with t:
        products.extract_twisting(p.nva, *inputs.factor_labels(p))
    calls = {k: c for k, (c, _) in t.summary()["stats"].items()}
    assert calls["products.extract_twisting"] == 1
    assert calls["linalg.solve_linear"] >= 2  # bound by name in products
    assert calls["linalg.matrix_rank"] >= 2
    assert t.counts["linalg.solve_linear.unknowns"] >= 2 * 80
    total_self = sum(s for (_, s) in t.summary()["stats"].values())
    assert abs(total_self - t.covered_s) < 1e-6 * max(1, len(t.spans))
    top = [s for s in t.spans if s[1] is None]
    assert [s[2] for s in top] == ["products.extract_twisting"]


def test_reference_time_weights_each_piece_by_the_speed_around_it():
    import speed

    probe = speed.SpeedProbe()
    # kernel runs (start, duration): 2 ms before, 4 ms inside, 4 ms after
    probe.starts, probe.took = [0.0, 1.0, 2.0], [0.002, 0.004, 0.004]
    probe.speed = [1 / t for t in probe.took]
    raw, ref = probe.interval(0.5, 1.5, 1.0)
    assert abs(raw - (0.5 + 0.496)) < 1e-12
    raw_full = raw
    # first piece at mean speed (1/2 + 1/4) per ms, second at 1/4 per ms
    want = 0.5 * 2 * (1 / 2 + 1 / 4) / 2 + 0.496 * 2 * (1 / 4)
    assert abs(ref - want) < 1e-12
    raw, ref = probe.interval(0.5, 0.9, 1.0)  # no kernel run inside
    assert abs(raw - 0.4) < 1e-12 and abs(ref - 0.3) < 1e-12
    assert probe.interval(0.5, 1.5, 0.0) == (raw_full, raw_full)  # no scaling


def test_tail_percentile_does_not_move_with_the_number_of_passes():
    from run import tail

    one_pass = [float(ms) for ms in range(1, 43)]  # 42 operations
    for passes in (1, 2, 3, 5):
        value, pct, n = tail(one_pass * passes, 42)
        assert (value, n) == (32.0, 42 * passes)  # 10 per pass beyond it
        assert abs(pct - 100 * 32 / 42) < 1e-9
    assert tail([3.0, 1.0, 2.0] * 4, 3)[0] == 3.0  # small pass: the maximum
