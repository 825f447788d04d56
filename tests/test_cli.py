"""Command-line interface: file format round-trips, reports, exit codes,
determinism."""

import json
import os
import subprocess
import sys

import pytest

from latcheck import catalog, cli
from latcheck.core import are_isomorphic, build_lattice
from latcheck.errors import ParseError


# the child interpreter finds latcheck where this one did, installed or not
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run_cli(args, **env):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "latcheck.cli", *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path, **env),
    )
    return proc


def write_catalog_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    cli.write_lattice_file(str(path), cli.diagram_of(catalog.get(name), name=name))
    return str(path)


def test_round_trip_byte_identical(tmp_path):
    path = write_catalog_file(tmp_path, "N5")
    original = open(path, "rb").read()
    d = cli.parse_lattice_file(path)
    path2 = tmp_path / "again.json"
    cli.write_lattice_file(str(path2), d)
    assert open(path2, "rb").read() == original
    assert are_isomorphic(build_lattice(d), catalog.get("N5"))


def test_covers_written_sorted(tmp_path):
    path = write_catalog_file(tmp_path, "L13")
    doc = json.loads(open(path).read())
    assert doc["covers"] == sorted(doc["covers"])


def test_parse_rejects_cycle(tmp_path):
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps({
        "name": "cyc", "elements": ["a", "b"],
        "covers": [["a", "b"], ["b", "a"]],
    }))
    proc = run_cli(["check", str(path)])
    assert proc.returncode == cli.EXIT_INPUT
    assert "cycle" in proc.stderr


def test_parse_rejects_two_maximal(tmp_path):
    path = tmp_path / "nolat.json"
    path.write_text(json.dumps({
        "name": "nolat", "elements": ["0", "a", "b"],
        "covers": [["0", "a"], ["0", "b"]],
    }))
    proc = run_cli(["check", str(path)])
    assert proc.returncode == cli.EXIT_INPUT
    assert "'a', 'b'" in proc.stderr


def test_parse_error_positions(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json }")
    with pytest.raises(ParseError) as exc:
        cli.parse_lattice_file(str(path))
    assert exc.value.line == 1


def test_parse_rejects_bad_schema(tmp_path):
    path = tmp_path / "bad2.json"
    path.write_text(json.dumps({"elements": "nope", "covers": []}))
    with pytest.raises(ParseError):
        cli.parse_lattice_file(str(path))


def test_check_command_profile(tmp_path):
    path = write_catalog_file(tmp_path, "N5")
    proc = run_cli(["check", path])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["command"] == "check"
    assert doc["results"]["whitman"] is True
    assert doc["results"]["distributive"] is False
    assert doc["results"]["length"] == 4
    assert doc["timing"] is None
    assert doc["violations"] == []


def test_reports_byte_identical(tmp_path):
    path = write_catalog_file(tmp_path, "stacked_n5")
    a = run_cli(["dec", path, "--all-witnesses"])
    b = run_cli(["dec", path, "--all-witnesses"])
    assert a.stdout == b.stdout and a.returncode == b.returncode == 0
    doc = json.loads(a.stdout)
    assert doc["results"]["dec"] == 5


def test_variety_command(tmp_path):
    path = write_catalog_file(tmp_path, "ninf(2)")
    proc = run_cli(["variety", path])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["results"]["member"] is True
    assert doc["results"]["cross_check"]["forbidden_profile_hits"] == []

    path = write_catalog_file(tmp_path, "L13")
    doc = json.loads(run_cli(["variety", path]).stdout)
    assert doc["results"]["member"] is False
    assert "offending_factor_labels" in doc["results"]["certificate"]


def test_variety_size_cap_exits_budget(tmp_path):
    path = tmp_path / "chain17.json"
    cli.write_lattice_file(str(path), cli.diagram_of(catalog.chain(17), name="chain(17)"))
    proc = run_cli(["variety", str(path)])
    assert proc.returncode == cli.EXIT_BUDGET
    assert proc.stderr.startswith("error: ")


def test_deep_term_exits_budget_without_traceback():
    # parsing is iterative, but canonicalize still recurses once per level
    term = "x"
    for _ in range(600):
        term = f"x & (y | ({term}))"
    proc = run_cli(["freelat", "canon", term])
    assert proc.returncode == cli.EXIT_BUDGET
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_deep_parentheses_are_decided():
    term = "(" * 600 + "x" + ")" * 600
    proc = run_cli(["freelat", "canon", term])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["canonical"] == "x"


def test_find_forbidden_exit_codes(tmp_path):
    clean = write_catalog_file(tmp_path, "stacked_n5")
    proc = run_cli(["find-forbidden", clean, "--profile", "N"])
    assert proc.returncode == 0
    dirty = write_catalog_file(tmp_path, "M3")
    proc = run_cli(["find-forbidden", dirty, "--profile", "N"])
    assert proc.returncode == cli.EXIT_VIOLATION
    doc = json.loads(proc.stdout)
    assert doc["violations"][0]["pattern"] == "M3"


def test_verify_theorems_command():
    proc = run_cli(["verify-theorems", "--size", "4"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["results"]["per_theorem"]["cube"]["lattices"] == 5
    assert doc["violations"] == []


def test_verify_theorems_single_theorem():
    proc = run_cli(["verify-theorems", "--size", "4", "--theorem", "staircase"])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert list(doc["results"]["per_theorem"]) == ["staircase"]


def test_enumerate_emit_and_reload(tmp_path):
    out = tmp_path / "emitted"
    proc = run_cli(["enumerate", "--size", "4", "--emit", str(out)])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["results"]["matching"] == 2
    files = sorted(os.listdir(out))
    assert len(files) == 2
    for f in files:
        d = cli.parse_lattice_file(str(out / f))
        build_lattice(d)


def test_catalog_emit_all(tmp_path):
    out = tmp_path / "cat"
    proc = run_cli(["catalog", "--emit", str(out)])
    assert proc.returncode == 0
    assert len(os.listdir(out)) == len(catalog.FIXED_NAMES)
    for name in ("N5", "L15", "shape_2x5_plus"):
        reloaded = build_lattice(cli.parse_lattice_file(str(out / f"{name}.json")))
        assert are_isomorphic(reloaded, catalog.get(name))


def test_freelat_commands(tmp_path):
    proc = run_cli(["freelat", "leq", "x & y", "x | y"])
    doc = json.loads(proc.stdout)
    assert doc["results"]["leq"] is True and doc["results"]["geq"] is False

    proc = run_cli(["freelat", "canon", "(x | y) & (x | y)"])
    assert json.loads(proc.stdout)["results"]["canonical"] == "x | y"

    path = write_catalog_file(tmp_path, "chain(2)")
    proc = run_cli(["freelat", "embed", path, "--size", "4"])
    doc = json.loads(proc.stdout)
    assert doc["results"]["found"] is True


def test_freelat_parse_error_exit():
    proc = run_cli(["freelat", "canon", "x &"])
    assert proc.returncode == cli.EXIT_INPUT


def test_usage_error_exit():
    proc = run_cli(["no-such-command"])
    assert proc.returncode == cli.EXIT_INPUT


def test_budget_exit_code(tmp_path):
    path = write_catalog_file(tmp_path, "stacked_n5")
    proc = run_cli(["find-forbidden", path, "--profile", "N", "--budget", "3"])
    assert proc.returncode == cli.EXIT_BUDGET


def test_dec_has_no_size_cap_and_spends_budget(tmp_path):
    path = tmp_path / "chain17.json"
    cli.write_lattice_file(str(path), cli.diagram_of(catalog.chain(17), name="chain(17)"))
    proc = run_cli(["dec", str(path)])
    assert proc.returncode == cli.EXIT_OK
    assert json.loads(proc.stdout)["results"]["dec"] == 1

    proc = run_cli(["--budget", "5", "dec", write_catalog_file(tmp_path, "stacked_n5")])
    assert proc.returncode == cli.EXIT_BUDGET
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_freelat_embed_reads_budget_env(tmp_path):
    path = write_catalog_file(tmp_path, "N5")
    for proc in (run_cli(["freelat", "embed", path], LATCHECK_BUDGET="10"),
                 run_cli(["freelat", "embed", path, "--budget", "10"])):
        assert proc.returncode == cli.EXIT_BUDGET
        assert proc.stderr == "error: free embedding search exceeded node budget 10\n"
    proc = run_cli(["freelat", "embed", path])
    assert proc.returncode == cli.EXIT_OK
    assert json.loads(proc.stdout)["results"]["found"] is True


def test_dec_survey_script():
    script = os.path.join(os.path.dirname(SRC), "scripts", "dec_survey.py")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, script, "--max-size", "5"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert "n=5: dec distribution {1:3, 3:2}, max=3 on 2 lattice(s)" in proc.stdout.splitlines()


def test_pretty_output_runs(tmp_path):
    path = write_catalog_file(tmp_path, "N5")
    proc = run_cli(["check", path, "--pretty"])
    assert proc.returncode == 0
    assert "whitman: True" in proc.stdout


def test_timing_flag_included(tmp_path):
    path = write_catalog_file(tmp_path, "N5")
    doc = json.loads(run_cli(["check", path, "--timing"]).stdout)
    assert isinstance(doc["timing"], float)
