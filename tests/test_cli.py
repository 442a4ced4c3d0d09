"""Command line: report content, formats, exit codes, determinism."""

import csv
import importlib.util
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import chainperm
import chainperm.cli
from chainperm import Permutation, classify_strong_312_ending_in_1, parse_permutation
from chainperm.cli import main
from helpers import scan_structure

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["n", "chain", "brute_force", "formula", "tag", "agree", "refinement"]
    return rows[1:]


def test_count_csv_report(capsys):
    code, out, err = run_cli(capsys, "count", "--chain", "312", "--n-max", "5")
    assert code == 0
    assert err == ""
    rows = parse_csv(out)
    assert [int(r[0]) for r in rows] == [1, 2, 3, 4, 5]
    assert [int(r[2]) for r in rows] == [1, 2, 5, 14, 42]
    assert all(r[1] == "312" for r in rows)
    assert all(r[3] == "" and r[4] == "" and r[5] == "true" for r in rows)
    assert rows[2][6] == "2,1,2"


def test_count_json_matches_csv(capsys):
    code, csv_out, _ = run_cli(
        capsys, "count", "--chain", "312,123:312", "--n-max", "4"
    )
    assert code == 0
    code, json_out, _ = run_cli(
        capsys, "count", "--chain", "312,123:312", "--n-max", "4", "--format", "json"
    )
    assert code == 0
    csv_rows = parse_csv(csv_out)
    json_rows = json.loads(json_out)
    assert len(csv_rows) == len(json_rows) == 4
    for text_row, obj in zip(csv_rows, json_rows):
        assert int(text_row[0]) == obj["n"]
        assert text_row[1] == obj["chain"] == "312,123:312"
        assert int(text_row[2]) == obj["brute_force"]
        assert obj["formula"] is None and text_row[3] == ""
        assert obj["tag"] is None and text_row[4] == ""
        assert obj["agree"] is True and text_row[5] == "true"
        assert text_row[6] == ",".join(map(str, obj["refinement"]))


def test_verify_agreeing_tag(capsys):
    code, out, err = run_cli(capsys, "verify", "--tags", "T34", "--n-max", "6")
    assert code == 0
    assert err == ""
    rows = parse_csv(out)
    assert len(rows) == 12
    assert {r[1] for r in rows} == {"231,312:231", "312,231:312"}
    assert all(r[4] == "T34" and r[5] == "true" and r[2] == r[3] for r in rows)


def test_verify_reports_stored_formula_disagreement(capsys):
    code, out, err = run_cli(capsys, "verify", "--tags", "T31", "--n-max", "5")
    assert code == 1
    assert "disagreement: tag=T31 n=5" in err
    assert "brute_force=6 formula=7" in err
    rows = parse_csv(out)
    bad = [r for r in rows if r[5] == "false"]
    assert bad
    assert all(int(r[0]) == 5 and r[2] == "6" and r[3] == "7" for r in bad)


def test_verify_multiple_tags(capsys):
    code, out, err = run_cli(capsys, "verify", "--tags", "T32, T34", "--n-max", "5")
    assert code == 0
    rows = parse_csv(out)
    assert {r[4] for r in rows} == {"T32", "T34"}
    # A repeated tag is checked once.
    code, out, err = run_cli(capsys, "verify", "--tags", "T41,T41", "--n-max", "2")
    assert code == 0
    rows = parse_csv(out)
    assert [(r[0], r[1], r[4]) for r in rows] == [
        ("1", "231,1432:231", "T41"),
        ("1", "312,3214:312", "T41"),
        ("2", "231,1432:231", "T41"),
        ("2", "312,3214:312", "T41"),
    ]


def test_verify_no_rows_notice(capsys):
    code, out, err = run_cli(capsys, "verify", "--tags", "T31", "--n-max", "2")
    assert code == 0
    assert "no rows" in err
    assert parse_csv(out) == []


def test_verify_unknown_tag(capsys):
    code, _, err = run_cli(capsys, "verify", "--tags", "T99", "--n-max", "3")
    assert code == 2
    assert "unknown formula tag" in err


def test_count_rejects_bad_chain(capsys):
    code, _, err = run_cli(capsys, "count", "--chain", "31,2:312", "--n-max", "3")
    assert code == 2
    assert "'31'" in err


def test_rejects_bad_sizes_and_jobs(capsys):
    code, _, err = run_cli(capsys, "count", "--chain", "312", "--n-max", "0")
    assert code == 2
    assert "--n-max" in err
    code, _, err = run_cli(capsys, "count", "--chain", "312", "--n-max", "3", "--jobs", "0")
    assert code == 2
    assert "--jobs" in err
    code, _, err = run_cli(capsys, "count", "--chain", "312", "--n-max", "20")
    assert code == 2
    assert "--force" in err


def test_out_writes_identical_report(capsys, tmp_path):
    # A passing run, and a failing one whose problem line still goes to stderr.
    runs = (
        (("count", "--chain", "312:312", "--n-max", "5"), 0, ""),
        (("verify", "--tags", "T31", "--n-max", "6"), 1,
         "disagreement: tag=T31 n=5 side=231 brute_force=6 formula=7\n"),
    )
    for argv, exit_code, stderr in runs:
        target = tmp_path / "report.csv"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out, err) == (exit_code, "", stderr), argv
        code, stdout_report, err = run_cli(capsys, *argv)
        assert (code, err) == (exit_code, stderr), argv
        assert target.read_text() == stdout_report, argv


def test_reports_are_deterministic_across_jobs(capsys):
    code, first, _ = run_cli(
        capsys, "count", "--chain", "312:312", "--n-max", "7", "--jobs", "1"
    )
    assert code == 0
    code, second, _ = run_cli(
        capsys, "count", "--chain", "312:312", "--n-max", "7", "--jobs", "4"
    )
    assert code == 0
    assert first == second


def test_symmetry_small(capsys):
    code, out, err = run_cli(capsys, "symmetry", "--n-max", "4")
    assert code == 0
    assert err == ""
    rows = parse_csv(out)
    assert len(rows) == 36
    assert all(r[5] == "true" and r[2] == r[3] for r in rows)
    assert len({r[4] for r in rows}) == 9


def test_symmetry_mismatch_exits_1(capsys, monkeypatch):
    def fake_count(n, chain, *, jobs=1, force=False):
        return SimpleNamespace(total=0 if chain.text().startswith("231") else 1)

    monkeypatch.setattr("chainperm.cli.count_chain", fake_count)
    code, out, err = run_cli(capsys, "symmetry", "--n-max", "2")
    assert code == 1
    assert err == "mirror count mismatch: tag=T31 n=1 chain_231 count=0 chain_312 count=1\n"
    rows = parse_csv(out)
    assert len(rows) == 18
    assert all(r[5] == "false" for r in rows)
    code, out, err = run_cli(capsys, "symmetry", "--n-max", "2", "--format", "json")
    assert code == 1
    assert err.startswith("mirror count mismatch: tag=T31 n=1")
    rows = json.loads(out)
    assert len(rows) == 18
    assert all(row["agree"] is False for row in rows)


def test_structure_report(capsys):
    code, out, err = run_cli(capsys, "structure", "--n-max", "5")
    assert code == 0
    assert err == ""
    rows = parse_csv(out)
    assert len(rows) == 5
    assert all(r[1] == "312:312" and r[5] == "true" for r in rows)
    assert rows[4][6] == "3,4,5"
    assert int(rows[4][2]) == int(rows[4][3]) == 2


def test_structure_json(capsys):
    code, out, _ = run_cli(capsys, "structure", "--n-max", "4", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[3]["refinement"] == [2, 3, 4]
    assert rows[3]["agree"] is True


def test_structure_counterexample_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("chainperm.cli.strongly_avoids", lambda pi, tau: False)
    code, out, err = run_cli(capsys, "structure", "--n-max", "2")
    assert code == 1
    assert "counterexample at n=1" in err
    assert "both avoid 312" in err


def test_structure_form_count_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("chainperm.cli.unimodal_forms", lambda n: [])
    code, out, err = run_cli(capsys, "structure", "--n-max", "2")
    assert code == 1
    assert len(parse_csv(out)) == 2
    assert err.splitlines() == [
        "form count mismatch at n=1: 1 words classified, 0 unimodal forms",
        "form count mismatch at n=2: 1 words classified, 0 unimodal forms",
    ]


def test_structure_report_matches_scan_oracle(capsys):
    code, out, err = run_cli(capsys, "structure", "--n-max", "9")
    assert code == 0
    assert err == ""
    rows = parse_csv(out)
    assert [int(r[0]) for r in rows] == list(range(1, 10))
    for n, row in enumerate(rows, start=1):
        strong, classified = scan_structure(
            n, lambda word: classify_strong_312_ending_in_1(Permutation(word))
        )
        assert strong == classified
        assert row[1:] == [
            "312:312",
            str(len(strong)),
            str(len(classified)),
            "",
            "true",
            ",".join(str(k) for k in range((n + 1) // 2, n + 1)),
        ]


def test_structure_same_size_mismatch_exits_1(capsys, monkeypatch):
    # Strong and classified words at n = 4 have the same count but differ.
    classify = chainperm.cli.classify_strong_312_ending_in_1
    patched = {"4321": None, "2341": 3}
    monkeypatch.setattr(
        "chainperm.cli.classify_strong_312_ending_in_1",
        lambda pi: patched.get(pi.text(), classify(pi)),
    )
    code, out, err = run_cli(capsys, "structure", "--n-max", "4")
    assert code == 1
    # Of the two mismatching words, 2341 and 4321, the report names the
    # lexicographically first.
    assert err.splitlines() == [
        "form count mismatch at n=4: 2 words classified, 2 unimodal forms",
        "counterexample at n=4: the square of 2341 is 3412, which contains 312 at positions (1, 3, 4)",
    ]
    assert len(parse_csv(out)) == 4


def test_structure_form_containing_312_exits_1(capsys, monkeypatch):
    # 4231 contains 312, so it is no candidate; the form count stays the same.
    forms = chainperm.cli.unimodal_forms
    swap = {"4321": parse_permutation("4231")}
    monkeypatch.setattr(
        "chainperm.cli.unimodal_forms",
        lambda n: [swap.get(f.text(), f) if n == 4 else f for f in forms(n)],
    )
    code, out, err = run_cli(capsys, "structure", "--n-max", "4")
    assert code == 1
    assert len(parse_csv(out)) == 4
    assert err.splitlines() == [
        "form count mismatch at n=4: 2 words classified, 2 unimodal forms",
    ]


def test_unwritable_out_is_an_error(capsys, tmp_path, monkeypatch):
    # The path is opened before any counting, so no work is thrown away.
    counted = []
    count_chain = chainperm.cli.count_chain

    def spy(*args, **kwargs):
        counted.append(args)
        return count_chain(*args, **kwargs)

    monkeypatch.setattr(chainperm.cli, "count_chain", spy)
    for target in (tmp_path, tmp_path / "missing" / "report.csv"):
        code, out, err = run_cli(
            capsys, "count", "--chain", "312", "--n-max", "3", "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(target) in err
    assert counted == []


def test_verify_walks_each_chain_once(capsys, root_walks):
    code, out, err = run_cli(capsys, "verify", "--tags", "T41", "--n-max", "9")
    assert code == 0
    assert len(parse_csv(out)) == 18
    assert len(root_walks) == 2


def test_reports_match_benchmark_references(capsys):
    # The same runs and bytes that perfbench/run.py compares.
    refs = PYPROJECT.parent / "perfbench" / "refs"
    runs = (
        (("verify", "--tags", "all", "--n-max", "8", "--jobs", "2"), "table-verify.csv", 1,
         "disagreement: tag=T31 n=5 side=231 brute_force=6 formula=7\n"),
        (("symmetry", "--n-max", "8", "--jobs", "2"), "table-symmetry.csv", 0, ""),
        (("structure", "--n-max", "10", "--format", "json"), "structure.json", 0, ""),
    )
    for argv, ref, exit_code, stderr in runs:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (exit_code, stderr), argv
        assert out.encode() == (refs / ref).read_bytes(), argv


def test_importing_the_cli_imports_no_multiprocessing():
    # Only a pool needs multiprocessing; short runs should not pay for it.
    result = run_child(
        [sys.executable, "-c", "import sys, chainperm.cli; print('multiprocessing' in sys.modules)"]
    )
    assert result.returncode == 0, describe(result)
    assert result.stdout == "False\n"


def test_importing_the_cli_compiles_no_matcher():
    # Each pattern's search is compiled on first use, never at start-up.
    code = "import chainperm.cli, chainperm.patterns as p; print(p._matcher.cache_info().currsize)"
    result = run_child([sys.executable, "-c", code])
    assert result.returncode == 0, describe(result)
    assert result.stdout == "0\n"


def load_tracing():
    path = PYPROJECT.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_names_exist_in_cli():
    # perfbench/run.py --trace 1 replaces these chainperm.cli names by wrappers.
    tracing = load_tracing()
    names = [*tracing.SPANNED, *tracing.COUNTED]
    assert names
    assert [name for name in names if not hasattr(chainperm.cli, name)] == []


def test_tracer_sees_every_traced_name_called():
    # A refactor may keep the names but stop calling them through chainperm.cli.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    for argv in (["verify", "--tags", "T41", "--n-max", "4"], ["structure", "--n-max", "4"]):
        _, _, code, _ = tracing.run_in_process(chainperm.cli, argv, tracer)
        assert code == 0, argv
    called = {s.name for s in tracer.spans} | {
        name for name, (calls, _) in tracer.counted.items() if calls
    }
    expected = {*tracing.SPANNED.values(), *tracing.COUNTED.values()}
    assert expected <= called


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def child_env():
    """The environment with the tested ``chainperm`` package first on PYTHONPATH."""
    package_root = str(Path(chainperm.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def run_child(argv):
    """Run ``argv`` against the tested ``chainperm`` package."""
    return subprocess.run(argv, capture_output=True, text=True, env=child_env())


def describe(result):
    return f"exit code {result.returncode}, stderr:\n{result.stderr}"


def declared_entry_point(name):
    """Split the ``[project.scripts]`` target of ``name`` into module and attribute."""
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"][name]
    module, _, attr = target.partition(":")
    return module, attr


def assert_help_lists_subcommands(result):
    assert result.returncode == 0, describe(result)
    assert "count" in result.stdout and "verify" in result.stdout, describe(result)


def test_console_entry_points():
    result = run_child(
        [sys.executable, "-m", "chainperm", "count", "--chain", "312", "--n-max", "3"]
    )
    assert result.returncode == 0, describe(result)
    assert result.stdout.splitlines()[-1].startswith("3,312,5"), describe(result)
    # The declared target, run as the generated console script runs it; only
    # this step needs a TOML parser, so the check above never does.
    module, attr = declared_entry_point("chainperm")
    result = run_child(
        [
            sys.executable,
            "-c",
            f"import sys; from {module} import {attr}; sys.exit({attr}())",
            "--help",
        ]
    )
    assert_help_lists_subcommands(result)


@pytest.mark.skipif(
    shutil.which("chainperm") is None,
    reason="the chainperm console script is not on PATH (package not installed)",
)
def test_installed_console_script():
    assert_help_lists_subcommands(run_child(["chainperm", "--help"]))


@pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists()
    or len(os.sched_getaffinity(0)) < 2,
    reason="needs /proc/<pid>/task/<tid>/children to see the pool's workers, "
    "and two usable CPUs for a pool to open",
)
def test_ctrl_c_during_pooled_count_exits_130():
    # Counting 312 up to n = 14 walks its tree once, in a pool from the
    # start, for longer than the test waits; SIGINT goes to the whole process
    # group, as Ctrl-C does.
    argv = [sys.executable, "-m", "chainperm", "count", "--chain", "312", "--n-max", "14", "--jobs", "2"]
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(),
        start_new_session=True,
    )
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    try:
        deadline = time.monotonic() + 60
        workers = []
        while not workers and time.monotonic() < deadline and proc.poll() is None:
            try:
                workers = children.read_text().split()
            except OSError:
                pass
            time.sleep(0.01)
        assert workers, "no pool worker appeared"
        time.sleep(0.2)
        os.killpg(proc.pid, signal.SIGINT)
        _, stderr = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert proc.returncode == 130, stderr
    assert "Traceback" not in stderr, stderr
    assert stderr == "interrupted\n"
    # Every worker has ended with the parent: the session has no process left.
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
