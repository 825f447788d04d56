"""Command-line interface: file format round-trips, reports, exit codes,
determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from latcheck import catalog, cli, embed
from latcheck.core import CoverDiagram, are_isomorphic, build_lattice, direct_product
from latcheck.errors import ParseError


# the child interpreter finds latcheck where this one did, installed or not
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def run_cli(args, cwd=None, **env):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "latcheck.cli", *args],
        capture_output=True, text=True, cwd=cwd, env=dict(os.environ, PYTHONPATH=path, **env),
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
    """variety has no size cap: N5 x chain(4) (n = 20) is decided, and only
    running out of search budget exits 3.  The host is semidistributive but
    not modular, so the searches for L6-L15 run and spend the budget."""
    path = tmp_path / "n5x4.json"
    L = direct_product(catalog.get("N5"), catalog.chain(4))
    cli.write_lattice_file(str(path), cli.diagram_of(L, name="N5 x chain(4)"))
    proc = run_cli(["variety", str(path)])
    assert proc.returncode == cli.EXIT_OK
    results = json.loads(proc.stdout)["results"]
    assert results["member"] is True and results["si_factor_sizes"] == [2, 5]
    proc = run_cli(["--budget", "3", "variety", str(path)])
    assert proc.returncode == cli.EXIT_BUDGET
    assert proc.stderr == "error: embedding search exceeded node budget 3\n"


def _is_embedding_by_covers(pattern, covers, f):
    """``f`` (pattern element -> host label) is injective, keeps and
    reflects the order, and keeps meets and joins, read on the host's down-
    and up-sets as closed from its cover pairs alone."""
    lower, upper = {}, {}
    for a, b in covers:
        lower.setdefault(b, []).append(a)
        upper.setdefault(a, []).append(b)

    def closed(x, step, memo):
        if x not in memo:
            memo[x] = frozenset({x}).union(*(closed(y, step, memo) for y in step.get(x, ())))
        return memo[x]

    down, up = {}, {}
    n = pattern.n
    return len(set(f)) == n and all(
        pattern.leq(a, b) == (f[a] in closed(f[b], lower, down))
        and closed(f[pattern.meet[a][b]], lower, down)
        == closed(f[a], lower, down) & closed(f[b], lower, down)
        and closed(f[pattern.join[a][b]], upper, up)
        == closed(f[a], upper, up) & closed(f[b], upper, up)
        for a in range(n) for b in range(n))


def test_variety_decides_a_large_subdirectly_irreducible_lattice(tmp_path):
    """The 257-element SI lattice of test_variety::test_si_factor_from_256_blocks,
    a chain c0 < ... < c129 with a side element s_i over each c_(i-1) and
    under c_(i+2), is decided on the default budget, where its
    forbidden-pattern cross-check ran the budget out; its L3 hit is checked
    on the file's cover pairs with no use of the embedding search."""
    m = 129
    labels = [f"c{i}" for i in range(m + 1)] + [f"s{i}" for i in range(1, m - 1)]
    covers = [(f"c{i}", f"c{i + 1}") for i in range(m)]
    covers += [(f"c{i - 1}", f"s{i}") for i in range(1, m - 1)]
    covers += [(f"s{i}", f"c{i + 2}") for i in range(1, m - 1)]
    path = str(tmp_path / "si257.json")
    cli.write_lattice_file(path, CoverDiagram(tuple(labels), tuple(covers), name="si257"))
    proc = run_cli(["variety", path], LATCHECK_BUDGET="")  # empty: the default budget
    assert proc.returncode == cli.EXIT_OK
    results = json.loads(proc.stdout)["results"]
    assert results["member"] is False and results["si_factor_sizes"] == [2, 257]
    assert results["cross_check"]["forbidden_profile_hits"] == ["L3"]
    L = cli.load_lattice(path)[0]
    [(name, witness)] = embed.contains_forbidden(L, embed.profile("N"))
    f = [L.labels[x] for x in witness.map]
    assert name == "L3" and _is_embedding_by_covers(catalog.get("L3"), covers, f)
    assert not _is_embedding_by_covers(catalog.get("L3"), covers, f[::-1])


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


def test_enumeration_sizes_checked_up_front():
    for argv in (["enumerate", "--size", "0"], ["verify-theorems", "--size", "-3"]):
        proc = run_cli(argv)
        assert proc.returncode == cli.EXIT_INPUT
        assert proc.stdout == ""
        assert proc.stderr == f"error: lattice enumeration needs n >= 1, got {argv[-1]}\n"
    # above the cap, verify-theorems stops before running any check
    proc = run_cli(["verify-theorems", "--size", "10"])
    assert proc.returncode == cli.EXIT_BUDGET
    assert proc.stdout == ""
    assert proc.stderr == "error: lattice enumeration size 10 exceeds configured cap 9\n"


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


def test_catalog_unknown_name_makes_no_directory(tmp_path, capsys):
    out = tmp_path / "cat"
    assert cli.main(["catalog", "--name", "BAD", "--emit", str(out)]) == cli.EXIT_INPUT
    assert "BAD" in capsys.readouterr().err
    assert not out.exists()


def test_catalog_family_size_capped_before_building(capsys):
    """A family's element count is read off its parameter: chain(400) is
    built, while chain(401) and chain(100000) exit 3 at once, before any
    order pair is walked."""
    assert cli.main(["catalog", "--name", "chain(400)"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["results"]["entries"][0]["elements"] == 400
    for name in ("chain(401)", "chain(100000)"):
        started = time.perf_counter()
        assert cli.main(["catalog", "--name", name]) == cli.EXIT_BUDGET
        assert time.perf_counter() - started < 1
        assert "exceeds configured cap 400" in capsys.readouterr().err


def test_freelat_commands(tmp_path):
    proc = run_cli(["freelat", "leq", "x & y", "x | y"])
    doc = json.loads(proc.stdout)
    assert doc["results"]["leq"] is True and doc["results"]["geq"] is False

    proc = run_cli(["freelat", "canon", "(x | y) & (x | y)"])
    assert json.loads(proc.stdout)["results"]["canonical"] == "x | y"

    path = write_catalog_file(tmp_path, "chain(2)")
    proc = run_cli(["freelat", "embed", path])
    doc = json.loads(proc.stdout)
    assert doc["results"]["found"] is True


def test_freelat_parse_error_exit():
    proc = run_cli(["freelat", "canon", "x &"])
    assert proc.returncode == cli.EXIT_INPUT


def test_usage_error_exit():
    proc = run_cli(["no-such-command"])
    assert proc.returncode == cli.EXIT_INPUT


def test_budget_exit_code(tmp_path):
    n5 = catalog.get("N5")
    path = str(tmp_path / "N5xN5.json")
    cli.write_lattice_file(path, cli.diagram_of(direct_product(n5, n5), name="N5xN5"))
    proc = run_cli(["find-forbidden", path, "--profile", "N", "--budget", "3"])
    assert proc.returncode == cli.EXIT_BUDGET


def test_verify_theorems_hypothesis_search_spends_budget():
    """The L15 lemma and the cube theorem find their hypotheses with the
    embedding search, which spends the budget."""
    for theorem in ("l15_lemma", "cube"):
        proc = run_cli(["--budget", "1", "verify-theorems", "--size", "8", "--theorem", theorem])
        assert proc.returncode == cli.EXIT_BUDGET
        assert proc.stderr == "error: embedding search exceeded node budget 1\n"


@pytest.mark.parametrize("args, env, message", [
    (["--budget", "-1"], {}, "search node budget must be a non-negative integer, got -1"),
    ([], {"LATCHECK_BUDGET": "-5"}, "LATCHECK_BUDGET must be a non-negative integer, got '-5'"),
    ([], {"LATCHECK_BUDGET": "1e6"}, "LATCHECK_BUDGET must be a non-negative integer, got '1e6'"),
], ids=["negative-flag", "negative-env", "float-env"])
def test_bad_budget_is_an_input_error(args, env, message):
    """A budget that is not a non-negative integer exits 2 and names the
    value, where a negative one exited 3 on the first node and a
    non-integer LATCHECK_BUDGET fell back to the default."""
    proc = run_cli([*args, "verify-theorems", "--size", "4", "--theorem", "cube"], **env)
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("command", [
    ["check", "N5.json"], ["dec", "N5.json"], ["variety", "N5.json"],
    ["find-forbidden", "N5.json", "--profile", "N"], ["verify-theorems", "--size", "4"],
    ["enumerate", "--size", "3"], ["catalog", "--name", "N5"],
    ["freelat", "leq", "x", "x | y"], ["freelat", "canon", "x & x"],
    ["freelat", "embed", "N5.json"],
], ids=lambda command: " ".join(command[:2]) if command[0] == "freelat" else command[0])
def test_every_command_rejects_a_bad_budget(tmp_path, command):
    """Before dispatch, so a command that never searches rejects it too."""
    write_catalog_file(tmp_path, "N5")
    for args, env, message in [
        (["--budget", "-1"], {}, "search node budget must be a non-negative integer, got -1"),
        ([], {"LATCHECK_BUDGET": "-5"}, "LATCHECK_BUDGET must be a non-negative integer, got '-5'"),
    ]:
        proc = run_cli([*args, *command], cwd=tmp_path, **env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (cli.EXIT_INPUT, "",
                                                               f"error: {message}\n")


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


def test_freelat_embed_has_no_caps(tmp_path):
    path = write_catalog_file(tmp_path, "N5")
    for option in ("--gens", "--depth", "--size"):
        assert run_cli(["freelat", "embed", path, option, "3"]).returncode == cli.EXIT_INPUT


def test_freelat_embed_reports_generators_or_reason(tmp_path, monkeypatch, capsys):
    """A witness comes with the element each generator maps to; without
    one, the reason says which law fails (see test_freeterm for M3), or
    that none does."""
    from latcheck import freeterm

    path = write_catalog_file(tmp_path, "N5")
    assert cli.main(["freelat", "embed", path]) == cli.EXIT_OK
    results = json.loads(capsys.readouterr().out)["results"]
    assert list(results) == ["name", "found", "generators", "witness"]
    assert results["generators"] == {"x": "x2", "y": "x3", "z": "x4"}
    monkeypatch.setattr(freeterm, "find_free_embedding", lambda L, budget=None: None)
    assert cli.main(["freelat", "embed", path]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["results"] == {
        "name": "N5", "found": False,
        "reason": "satisfies W and SD; no verified witness was built"}


def test_check_runs_each_semidistributive_scan_once(tmp_path, monkeypatch, capsys):
    """check computes each structural verdict once per lattice and reads
    only the verdicts, so no law's witness scan runs: not on N5, where both
    semidistributive laws hold, nor on M3, where both fail."""
    from latcheck import laws

    verdicts, sd_scans, modular_scans = [], [], []

    def spy(calls, real):
        def wrapper(*args):
            calls.append(args)
            return real(*args)
        return wrapper

    monkeypatch.setattr(laws, "_kappa_holds", spy(verdicts, laws._kappa_holds))
    monkeypatch.setattr(laws, "_rank_holds", spy(verdicts, laws._rank_holds))
    monkeypatch.setattr(laws, "_sd_check", spy(sd_scans, laws._sd_check))
    monkeypatch.setattr(laws, "_modular_scan", spy(modular_scans, laws._modular_scan))
    for name, sd, modular in (("N5", True, False), ("M3", False, True)):
        for calls in (verdicts, sd_scans, modular_scans):
            calls.clear()
        assert cli.main(["check", write_catalog_file(tmp_path, name)]) == cli.EXIT_OK
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["sd_join"] == results["sd_meet"] == sd
        assert results["modular"] == modular
        # the join law reads upper covers, the meet law lower covers
        assert len(verdicts) == 3 and verdicts[0][1] != verdicts[1][1]
        assert sd_scans == modular_scans == []


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
    # re-recorded when the witness construction replaced the capped search:
    # the same five terms, with generators in place of the caps
    "freelat embed": "7df24178db3436eaa439e1c2c4a41347c3bf99eb6bdb923242c6a91385753933",
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


def _parsed(parser, argv, capsys):
    """(exit code, stdout, stderr) of ``parser`` on ``argv``, which exits."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return (exc.value.code, *capsys.readouterr())


def test_lazy_parser_matches_the_full_parser(capsys):
    # a parser built for argv holds the root and the one command it names;
    # help, usage errors and exit codes are byte for byte the full parser's
    assert cli._named_command(["--pretty", "--budget", "5", "dec", "f"]) == "dec"
    assert cli._named_command(["--budget=5", "freelat", "leq"]) == "freelat"
    for argv in (["-h", "check"], ["--bud", "5", "check"], ["bogus", "check"], []):
        assert cli._named_command(argv) is None
    code, _, err = _parsed(cli.build_parser(["check", "f"]), ["dec", "f"], capsys)
    assert code == 2 and "invalid choice: 'dec' (choose from 'check')" in err
    helps = [["--help"]] + [[name, "--help"] for name in cli._COMMANDS]
    helps += [["freelat", name, "--help"] for name in ("leq", "canon", "embed")]
    errors = [["bogus"], [], ["--budget"], ["--budget", "x", "check", "f"],
              ["check"], ["check", "f", "--bogus"], ["freelat", "nope"],
              ["dec", "f", "--all-witnesses", "3"]]
    for argv in helps + errors:
        full = _parsed(cli.build_parser(), argv, capsys)
        assert _parsed(cli.build_parser(argv), argv, capsys) == full, argv
        assert full[0] == (0 if argv in helps else 2), argv
    assert cli.main(["bogus"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert err == _parsed(cli.build_parser(), ["bogus"], capsys)[2]
    assert "invalid choice: 'bogus' (choose from 'check', 'dec', " in err
