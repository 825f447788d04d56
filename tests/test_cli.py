"""Command-line interface: file format round-trips, reports, exit codes,
determinism."""

import hashlib
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


# -- pinned reports and exit codes --------------------------------------------

TERM_PAIRS = (
    ("x & y", "x | y"),
    ("x & (y | z)", "(x & y) | (x & z)"),
    ("(x | y) & (x | z)", "x | (y & z)"),
    ("x | (y & (x | z))", "(x | y) & (x | z)"),
    ("((x & y) | (x & z)) | (y & z)", "(x | y) & ((x | z) & (y | z))"),
)
TERMS = ("x | (x | y)", "(x | y) & (x | y)", "(x & (y | x)) | (z & w)",
         "((a & b) | (a & c)) & (a | (b & c))")


def report_calls():
    """(group, argv) for the pinned CLI calls; lattice paths are relative to
    the directory the catalog files are written to."""
    calls = []
    for name in catalog.FIXED_NAMES:
        f = f"{name}.json"
        calls += [("check", ["check", f]), ("variety", ["variety", f]),
                  ("dec", ["dec", f, "--all-witnesses"]),
                  ("find-forbidden", ["find-forbidden", f, "--profile", "N"])]
    calls += [("freelat leq", ["freelat", "leq", s, t]) for s, t in TERM_PAIRS]
    calls += [("freelat canon", ["freelat", "canon", t]) for t in TERMS]
    calls.append(("freelat embed", ["freelat", "embed", "N5.json"]))
    calls.append(("verify-theorems", ["verify-theorems", "--size", "5"]))
    return calls


def run_report_calls(tmp_path, monkeypatch, capsys):
    """Runs every pinned call in-process: (group, argv, exit code, stdout)."""
    for name in catalog.FIXED_NAMES:
        write_catalog_file(tmp_path, name)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    out = []
    for group, argv in report_calls():
        code = cli.main(argv)
        out.append((group, argv, code, capsys.readouterr().out))
    return out


# sha256 of the concatenated stdout per group, recorded before the CLI
# imported its modules per command
PINNED_REPORT_DIGESTS = {
    "check": "9849784044a95c19c8e12afe1bf6fc2b78223f024a1d16ab4eaf67994b737ca2",
    "variety": "6c7aaf35104ad6ab8ed81ff77f350663863fcbd7f04a6aea6a145cda3d6a8c2f",
    "dec": "b9d48575abaaf7040ba4c22ad41bd1ee754054b19d9ffc6e36681f1884ff69ec",
    "find-forbidden": "9ee3da7b06e62676e1604b236bb635792f42d700dfd54e202814abc22a199603",
    "freelat leq": "b77be08859694aaeafcd6ec4fe1651ef8ced03d0c8a4b843b413dbe711d12267",
    "freelat canon": "d12757d588acf394ee58cb80cdfe0d458b920a5449237306f2cec65290767800",
    "freelat embed": "b9f5c43ab7f4ec9f7a3a0cb5d6ff4b6a6926807c2adc5f6583d0b0255b544ccc",
    "verify-theorems": "7e21523472abbc52141492d87bced70355c14005e87453531da74e62d9d442b0",
}


def test_reports_pinned(tmp_path, monkeypatch, capsys):
    digests = {}
    for group, _, _, stdout in run_report_calls(tmp_path, monkeypatch, capsys):
        digests.setdefault(group, hashlib.sha256()).update(stdout.encode())
    assert {g: h.hexdigest() for g, h in digests.items()} == PINNED_REPORT_DIGESTS


def test_exit_one_only_on_violations(tmp_path, monkeypatch, capsys):
    runs = run_report_calls(tmp_path, monkeypatch, capsys)
    for group, argv, code, stdout in runs:
        violations = json.loads(stdout)["violations"]
        assert code == (cli.EXIT_VIOLATION if violations else cli.EXIT_OK), argv
    # both outcomes occur, so the equivalence is tested both ways
    assert {code for _, _, code, _ in runs} == {cli.EXIT_OK, cli.EXIT_VIOLATION}


def test_choices_checked_and_listed(monkeypatch, capsys):
    from latcheck import embed, theorems

    # one line per option in --help, so no choice is wrapped at a hyphen
    monkeypatch.setenv("COLUMNS", "1000")
    cases = [
        (["find-forbidden", "N5.json", "--profile", "Q"], sorted(embed.PROFILES)),
        (["verify-theorems", "--profile", "Q"], sorted(theorems.PROFILE_CHECKS)),
        (["verify-theorems", "--theorem", "nope"], list(theorems.ALL_CHECK_IDS)),
    ]
    for argv, names in cases:
        assert cli.main(argv) == cli.EXIT_INPUT
        err = capsys.readouterr().err.splitlines()[-1]
        assert f"invalid choice: {argv[-1]!r} (choose from " in err
        assert all(repr(name) in err for name in names), err

    assert cli.main(["find-forbidden", "--help"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert all(name in out for name in embed.PROFILES)
    assert cli.main(["verify-theorems", "--help"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert all(name in out for name in (*theorems.ALL_CHECK_IDS, *theorems.PROFILE_CHECKS))
