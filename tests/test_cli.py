"""Command-line driver: exit codes, file round trips, JSON reports."""

import json
import subprocess
import sys

import pytest

from nvaw.cli import Inputs, main
from nvaw.nva import DEFAULT_KMAX, CheckReport, Outcome


def run(*argv):
    return main(list(argv))


def test_check_nva_registry_ok(capsys):
    assert run("check", "Z2", "--suite", "nva") == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_check_qva_identity_smap_ok():
    assert run("check", "E2", "--suite", "qva", "--smap", "identity") == 0


def test_check_qva_broken_instance_fails(capsys):
    assert run("check", "E1n", "--suite", "qva", "--smap", "identity") == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_twist_suite_ok():
    assert run("check", "Z2", "--suite", "twist",
               "--twist", "sign:Z2,Z2") == 0


def test_check_module_suite_ok():
    assert run("check", "E1", "--suite", "module") == 0


def test_check_smash_suite_ok():
    assert run("check", "z2-sign", "--suite", "smash") == 0


def test_product_then_check_round_trip(tmp_path):
    out = tmp_path / "prod.nvaw"
    assert run("product", "Z2", "Z2", "--twist", "sign:Z2,Z2",
               "-o", str(out)) == 0
    assert out.exists()
    assert run("check", str(out), "--suite", "nva") == 0


def test_product_props_suite_on_registry():
    assert run("check", "Z2", "--suite", "product-props",
               "--twist", "sign:Z2,Z2") == 0


def test_smash_then_check_round_trip(tmp_path):
    out = tmp_path / "smash.nvaw"
    assert run("smash", "z2-sign", "z2-sign", "-o", str(out)) == 0
    assert run("check", str(out), "--suite", "nva") == 0


def test_smash_kmax_reaches_the_module_algebra_precondition(
        tmp_path, monkeypatch, capsys):
    import nvaw.smash as smash_mod

    real = smash_mod.check_module_algebra
    seen = []

    def spy(m, kmax=DEFAULT_KMAX):
        seen.append(kmax)
        return real(m, kmax)

    monkeypatch.setattr(smash_mod, "check_module_algebra", spy)
    out = tmp_path / "smash.nvaw"
    assert run("smash", "z2-sign", "z2-sign", "--kmax", "3",
               "-o", str(out)) == 0
    assert seen == [3]

    # a failed precondition is reported, exits 1 and writes no product
    def failing(m, kmax=DEFAULT_KMAX):
        rep = CheckReport("module-algebra axioms")
        rep.add("module(one,g,one) k=0", Outcome.FAIL)
        return rep

    monkeypatch.setattr(smash_mod, "check_module_algebra", failing)
    out.unlink()
    capsys.readouterr()
    assert run("smash", "z2-sign", "z2-sign", "-o", str(out)) == 1
    assert capsys.readouterr().err.startswith(
        "precondition failed: hypothesis 'module-algebra axioms' fails at "
        "module(one,g,one) k=0")
    assert not out.exists()


def test_extract_twist_recovers_sign(tmp_path):
    prod = tmp_path / "prod.nvaw"
    assert run("product", "Z2", "Z2", "--twist", "sign:Z2,Z2",
               "-o", str(prod)) == 0
    tw = tmp_path / "twist.nvaw"
    assert run("extract-twist", str(prod),
               "--u", "(one,one),(g,one)", "--v", "(one,one),(one,g)",
               "-o", str(tw)) == 0
    assert tw.exists() and "twist" in tw.read_text()


def test_extract_smap_reports_underdetermined(capsys):
    # the defining relation does not pin the S-map down on any registry
    # instance, so the solve fails honestly
    assert run("extract-smap", "E2") == 1
    assert "Underdetermined" in capsys.readouterr().out


def test_z2_report_of_an_x_free_algebra_does_not_depend_on_the_window(
        tmp_path):
    # the monomials f of the report are exact data, so a narrow window on
    # the tables does not clip them
    out = tmp_path / "report.json"
    for alg in ("E1", "Z2"):
        for window in ("--window=0..0", "--window=-8..8"):
            assert run("extract-smap", alg, window, "--json", str(out)) == 1
            z2 = [r for r in json.loads(out.read_text())
                  if r["identity"] == "Z2 kernel rank 0"]
            assert [(r["verdict"], r["detail"]) for r in z2] == [(
                "FAIL", "columns 36, rank 18, kernel 18, "
                        "monomial window (-1, 1)")], (alg, window)


def test_json_report(tmp_path):
    path = tmp_path / "report.json"
    assert run("check", "Z2", "--suite", "nva", "--json", str(path)) == 0
    rows = json.loads(path.read_text())
    assert rows and all(
        set(r) == {"suite", "identity", "verdict", "detail", "window"}
        for r in rows)
    assert all(r["suite"] == "nva" for r in rows)


def test_list(capsys):
    assert run("list") == 0
    out = capsys.readouterr().out
    assert "Z2" in out and "sign:Z2,Z2" in out and "z2-sign" in out


def test_usage_errors_exit_2():
    assert run("check", "Z2", "--suite", "twist") == 2        # missing --twist
    assert run("check", "nosuch", "--suite", "nva") == 2      # unknown input
    assert run("frobnicate") == 2                              # bad command
    assert run("check", "Z2", "--suite", "nva", "--window", "5..2") == 2
    assert run("check", "E2", "--suite", "nva", "--window=2..4") == 2
    assert run("check", "E2", "--suite", "nva", "--window=-4..-2") == 2
    assert run("check", "E1", "--suite", "nva", "--kmax", "-1") == 2


@pytest.mark.parametrize("kmax", ["abc", "1.5"])
def test_a_kmax_that_is_not_an_integer_is_a_usage_error(capsys, kmax):
    assert run("check", "E2", "--suite", "nva", "--kmax", kmax) == 2
    err = capsys.readouterr().err
    assert f"bad kmax {kmax!r}, expected an integer >= 0" in err
    assert "_parse_kmax" not in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("check", "{dir}", "--suite", "nva"),
    ("check", "E1", "--suite", "nva", "--json", "{dir}"),
    ("product", "E2", "E2", "--twist", "flip:E2,E2", "-o", "{dir}"),
    ("check", "E1", "--suite", "nva", "--json", "{dir}/no/report.json"),
    ("extract-smap", "E2", "-o", "{dir}/no/smap.nvaw"),
])
def test_a_directory_for_a_file_is_a_usage_error(tmp_path, capsys, argv):
    # exit 1 would read as a failed verdict; an output path is refused
    # before any work, so no report is printed
    assert run(*(a.format(dir=tmp_path) for a in argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(tmp_path) in err
    assert "Traceback" not in err


def test_product_props_on_a_file_twist_inverts_it_once(tmp_path, monkeypatch):
    # a file twist carries no inverse: the suite inverts it once, and the
    # invertible relations read the product's twist
    import nvaw.twist as twist_mod
    from nvaw.fileformat import emit_twist
    from nvaw.registry import make_e2
    from nvaw.twist import flip_twist

    (tmp_path / "twist.nvaw").write_text(
        emit_twist(flip_twist(make_e2(), make_e2())))
    real, calls = twist_mod.invert_twisting, []

    def counted(t):
        calls.append(t.name)
        return real(t)

    monkeypatch.setattr(twist_mod, "invert_twisting", counted)
    assert run("check", str(tmp_path / "twist.nvaw"), "--suite",
               "product-props", "--twist", "flip(E2,E2)") == 0
    assert calls == ["flip(E2,E2)"]


@pytest.mark.parametrize("argv,expected", [
    (("check", "z2-sign", "--suite", "nva"), "expected an algebra"),
    (("product", "z2-sign", "E2", "--twist", "flip:E2,E2"),
     "expected an algebra"),
    (("extract-smap", "z2-sign"), "expected an algebra"),
    (("check", "E2", "--suite", "smash"), "expected a smash datum"),
    (("smash", "E2", "z2-sign"), "expected a smash datum"),
    (("check", "E2", "--suite", "qva", "--smap", "id:Z2"), "is for Z2"),
])
def test_a_registry_name_of_the_wrong_kind_is_a_usage_error(
        capsys, argv, expected):
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expected in err
    assert "Traceback" not in err


def write_failing_inputs(tmp_path):
    """Files whose data fail a precondition: a flip E2⊗E2 twist with
    R(s⊗s) = 2·s⊗s, which fails its hexagons, and an action and a
    coaction over two bialgebras on Z2 that differ in their counit."""
    from nvaw.fileformat import emit_coalg, emit_twist
    from nvaw.registry import make_e2, z2_smash_datum
    from nvaw.twist import flip_twist

    twist = emit_twist(flip_twist(make_e2(), make_e2()))
    assert "r s s -> (s,s):1\n" in twist
    (tmp_path / "twist.nvaw").write_text(
        twist.replace("r s s -> (s,s):1\n", "r s s -> (s,s):2\n"))
    (tmp_path / "smash.nvaw").write_text(
        emit_coalg(z2_smash_datum().coalgebra, "H") + "\n".join((
            "coalg K Z2", "delta one -> (one,one):1", "delta g -> (g,g):1",
            "eps one -> 2", "eps g -> 2",
            "action act H Z2", "a one one -> (one):1", "a one g -> (g):1",
            "a g one -> (one):1", "a g g -> (g):-1",
            "coaction co K Z2", "rho one -> (one,one):1",
            "rho g -> (g,g):1", "")))
    assert run("product", "E2", "E2", "--twist", "flip:E2,E2",
               "-o", str(tmp_path / "prod.nvaw")) == 0


@pytest.mark.parametrize("argv", [
    ("check", "twist.nvaw", "--suite", "product-props",
     "--twist", "flip(E2,E2)"),
    ("product", "twist.nvaw", "twist.nvaw", "--twist", "flip(E2,E2)"),
    ("extract-twist", "prod.nvaw", "--u", "(one,one),(s,one)",
     "--v", "(one,one),(one,s)"),
    ("check", "smash.nvaw", "--suite", "smash"),
    ("smash", "smash.nvaw", "smash.nvaw"),
])
def test_a_failed_precondition_exits_1_with_its_message(
        tmp_path, monkeypatch, capsys, argv):
    write_failing_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("precondition failed: hypothesis "), err
    assert "Traceback" not in err


def test_smash_halves_over_bialgebras_that_differ_in_y_exit_1(
        tmp_path, monkeypatch, capsys):
    # two files declare H2 with one group-like coalgebra H; they differ
    # only in Y(g,x)g, which is 1 in one file and -1 in the other
    common = "\n".join((
        "space Z2 basis one g", "vacuum Z2 one", "y Z2 g g -> (one):1",
        "y Z2 g one -> (g):1", "y Z2 one g -> (g):1",
        "y Z2 one one -> (one):1",
        "space H2 basis one g", "vacuum H2 one", "y H2 g one -> (g):1",
        "y H2 one g -> (g):1", "y H2 one one -> (one):1",
        "coalg H H2", "delta one -> (one,one):1", "delta g -> (g,g):1",
        "eps one -> 1", "eps g -> 1", ""))
    (tmp_path / "a.nvaw").write_text(common + "\n".join((
        "y H2 g g -> (one):1", "action act H Z2", "a one one -> (one):1",
        "a one g -> (g):1", "a g one -> (one):1", "a g g -> (g):-1", "")))
    (tmp_path / "b.nvaw").write_text(common + "\n".join((
        "y H2 g g -> (one):-1", "coaction co H Z2",
        "rho one -> (one,one):1", "rho g -> (one,g):1", "")))
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert run("smash", "a.nvaw", "b.nvaw") == 1
    err = capsys.readouterr().err
    assert "share one bialgebra" in err and "Traceback" not in err


def test_window_reaches_the_registry(tmp_path):
    inputs = Inputs("E2", (0, 0))
    for table in (inputs.algebra().y, inputs.twist("flip:E2,E2").first.y,
                  inputs.smap("id:E2").algebra.y):
        windows = {s.window for col in table.columns.values()
                   for s in col.entries.values() if s.variables}
        assert windows == {(0, 0)}
    # clipped table terms weaken verdicts to window-pass, never to fail
    out = tmp_path / "report.json"
    assert run("check", "E2", "--suite", "nva", "--window=0..0",
               "--json", str(out)) == 0
    verdicts = {r["identity"]: r["verdict"]
                for r in json.loads(out.read_text())}
    assert verdicts["assoc(one,s,one) k=0"] == "WINDOW_PASS"
    assert "FAIL" not in verdicts.values()
    # the module suite reads its pole order off the clipped tables, as the
    # algebra's weak associativity does
    assert run("check", "E2", "--suite", "module", "--window=0..0",
               "--json", str(out)) == 0
    verdicts = {r["identity"]: r["verdict"]
                for r in json.loads(out.read_text())}
    assert verdicts["module(one,s,one) k=0"] == "WINDOW_PASS"
    assert verdicts["module(s,one,one) k=0"] == "WINDOW_PASS"
    assert "FAIL" not in verdicts.values()


def test_parse_error_exits_2(tmp_path):
    bad = tmp_path / "bad.nvaw"
    bad.write_text("space V basis a a\n")
    assert run("check", str(bad), "--suite", "nva") == 2


def test_a_command_imports_only_what_it_runs():
    # a fresh process, since this one has imported every module already
    script = (
        "import sys\n"
        "import nvaw.cli\n"
        "lean = {'dataclasses', 'nvaw.fileformat', 'nvaw.products'}\n"
        "assert not lean & set(sys.modules), sorted(lean & set(sys.modules))\n"
        "assert nvaw.cli.main(['check', 'E1', '--suite', 'nva']) == 0\n"
        "assert not lean & set(sys.modules), sorted(lean & set(sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "nvaw.cli", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "algebras:" in proc.stdout


def test_a_command_builds_each_registry_table_once(monkeypatch):
    from nvaw import registry

    builds = {}
    for name in ("builtin_algebras", "builtin_twists", "builtin_smaps",
                 "builtin_smash"):
        real = getattr(registry, name)

        def counted(*args, _name=name, _real=real):
            builds[_name] = builds.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(registry, name, counted)
    for argv in (("check", "E2", "--suite", "nva", "--window=0..0"),
                 ("check", "z2-sign", "--suite", "smash"),
                 ("product", "E1", "E1", "--twist", "flip:E1,E1"),
                 ("smash", "z2-sign", "z2-sign")):
        builds.clear()
        assert run(*argv) == 0
        assert builds and max(builds.values()) == 1, (argv, builds)


def test_registry_names_are_the_built_tables():
    from nvaw import registry

    assert set(registry.ALGEBRA_NAMES) == set(registry.builtin_algebras())
    assert set(registry.SMASH_NAMES) == set(registry.builtin_smash())


def readme_command_lines():
    """The `nvaw` lines of the sh block under "## Command line" in the
    README, as argument lists."""
    import re
    import shlex
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("nvaw ")]


def test_the_readme_command_lines_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = readme_command_lines()
    assert len(lines) == 11
    # extract-smap E2 is the honest failure the README names
    assert [(argv, run(*argv)) for argv in lines] == [
        (argv, 1 if argv == ["extract-smap", "E2"] else 0) for argv in lines]
