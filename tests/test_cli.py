"""Command line: report content, formats, exit codes, determinism."""

import ast
import csv
import importlib.util
import io
import json
import os
import re
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
from chainperm import (
    Permutation,
    classify_strong_312_ending_in_1,
    parse_chain,
    parse_permutation,
    walk_chain_avoiders,
)
from chainperm.cli import _FIELDS, _row, main, render_report
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


def test_render_report_writes_each_row_in_csv_and_json():
    rows = [
        _row(4, "312:312", 7),
        _row(4, "312:312", 7, 7, "T34"),
        _row(4, "312:312", 7, formula=8, tag="T34"),
        _row(2, "312", 2, refinement=(1, 1)),
    ]
    assert list(_row(1, "312", 1)) == list(_FIELDS)
    assert rows[0] == {
        "n": 4,
        "chain": "312:312",
        "brute_force": 7,
        "formula": None,
        "tag": None,
        "agree": True,
        "refinement": None,
    }
    assert [row["agree"] for row in rows] == [True, True, False, True]
    assert render_report(rows, "csv") == (
        "n,chain,brute_force,formula,tag,agree,refinement\n"
        "4,312:312,7,,,true,\n"
        "4,312:312,7,7,T34,true,\n"
        "4,312:312,7,8,T34,false,\n"
        '2,312,2,,,true,"1,1"\n'
    )
    assert json.loads(render_report(rows, "json")) == rows
    assert rows[3]["refinement"] == [1, 1]
    assert render_report(rows, "json").endswith("  }\n]\n")


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


def test_every_subcommand_refuses_sizes_above_the_cap(capsys):
    # The cap is enforced by the enumeration alone; main turns its refusal
    # into one error line, as it does for any other failed run.
    for argv in (
        ("count", "--chain", "312"),
        ("verify", "--tags", "all"),
        ("symmetry",),
        ("structure",),
    ):
        code, out, err = run_cli(capsys, *argv, "--n-max", "15")
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "--force" in err, argv
    code, _, _ = run_cli(capsys, "verify", "--tags", "T41", "--n-max", "15", "--force")
    assert code == 0


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
    # The classifier rejects both strong words at n = 4 and one at n = 5.
    classify = chainperm.cli.classify_strong_312_ending_in_1
    rejected = {"3421", "4321", "54321"}
    monkeypatch.setattr(
        "chainperm.cli.classify_strong_312_ending_in_1",
        lambda pi: None if pi.text() in rejected else classify(pi),
    )
    code, out, err = run_cli(capsys, "structure", "--n-max", "5")
    assert code == 1
    # The witness is the lexicographically first of the smallest size.
    assert err.splitlines() == [
        "form count mismatch at n=4: 0 words classified, 2 unimodal forms",
        "form count mismatch at n=5: 1 words classified, 2 unimodal forms",
        "counterexample at n=4: 3421 and its square 2143 both avoid 312",
    ]
    rows = parse_csv(out)
    assert [r[2:4] + [r[5]] for r in rows[3:]] == [["2", "0", "false"], ["2", "1", "false"]]


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


def test_structure_grows_every_strong_avoider_ending_in_1_to_14(capsys):
    # Past the benchmark references (n <= 10) and the scan oracle (n <= 9):
    # each size's words are grown from the size below, and must number as
    # many as the pruned tree of 312:312 holds that end in 1.
    code, out, err = run_cli(capsys, "structure", "--n-max", "14")
    assert (code, err) == (0, "")
    ending_in_1 = [0] * 14
    for word in walk_chain_avoiders(14, parse_chain("312:312")):
        if word and word[-1] == 1:
            ending_in_1[len(word) - 1] += 1
    assert [int(r[2]) for r in parse_csv(out)] == ending_in_1


def test_structure_same_size_mismatch_exits_1(capsys, monkeypatch):
    # The classified words and the forms at n = 4 have the same count but
    # differ: 2341 avoids 312, but its square 3412 does not.
    forms = chainperm.cli.unimodal_forms
    swap = {"3421": parse_permutation("2341")}
    monkeypatch.setattr(
        "chainperm.cli.unimodal_forms",
        lambda n: [swap.get(f.text(), f) if n == 4 else f for f in forms(n)],
    )
    code, out, err = run_cli(capsys, "structure", "--n-max", "4")
    assert code == 1
    assert err.splitlines() == [
        "form count mismatch at n=4: 2 words classified, 2 unimodal forms",
    ]
    rows = parse_csv(out)
    assert len(rows) == 4
    assert all(r[5] == "true" for r in rows)


def test_structure_block_count_mismatch_exits_1(capsys, monkeypatch):
    # The block program counts one strong 312 avoider ending in 1 too many
    # at n = 4; the walk, the classifier and the forms are untouched.
    count = chainperm.enumeration._sum_of_blocks

    def miscount(n, level1, up):
        splits = count(n, level1, up)
        splits[3][-1] += 1
        return splits

    monkeypatch.setattr(chainperm.enumeration, "_sum_of_blocks", miscount)
    code, out, err = run_cli(capsys, "structure", "--n-max", "5")
    assert code == 1
    assert err.splitlines() == [
        "ending-in-1 count mismatch at n=4: growth finds 2, the block count gives 3",
    ]
    rows = parse_csv(out)
    assert len(rows) == 5
    assert all(r[5] == "true" for r in rows)


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


def closed_pipe():
    """The write end of a pipe whose read end is already closed."""
    read, write = os.pipe()
    os.close(read)
    return write


@pytest.mark.parametrize("unbuffered", (False, True), ids=("buffered", "unbuffered"))
@pytest.mark.parametrize(
    "open_stdout, message",
    (
        pytest.param(
            lambda: os.open("/dev/full", os.O_WRONLY),
            "[Errno 28] No space left on device",
            marks=pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full"),
            id="full",
        ),
        pytest.param(closed_pipe, "[Errno 32] Broken pipe", id="closed-pipe"),
    ),
)
def test_unwritable_stdout_is_an_error(unbuffered, open_stdout, message):
    # Block-buffered, the report reaches stdout only when it is flushed;
    # unflushed, Python would flush it at exit, print "Exception ignored"
    # and exit 120.
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "chainperm", "count", "--chain", "312", "--n-max", "3"]
    stdout = open_stdout()
    try:
        result = subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(stdout)
    assert (result.returncode, result.stderr) == (2, f"error: {message}\n")

def test_verify_counts_each_chain_once(capsys, root_walks, block_counts):
    # Every subcommand counts each of its chains once, to n_max: a chain
    # that prunes at level 2 by one count over sums of blocks, any other
    # by one walk of its tree from the root.  Each run starts without
    # counts.  Columns: argv, report rows, block counts, root walks.
    runs = (
        (("verify", "--tags", "T41", "--n-max", "9"), 18, 2, 0),
        (("symmetry", "--n-max", "9"), 81, 18, 0),
        (("structure", "--n-max", "9"), 9, 1, 0),
        (("count", "--chain", "13245:2143:312", "--n-max", "8", "--jobs", "1"), 8, 0, 1),
        (("count", "--chain", "312,3214:312", "--n-max", "9"), 9, 1, 0),
    )
    for argv, *expected in runs:
        chainperm.enumeration._COUNTS.clear()
        block_counts.clear()
        root_walks.clear()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert [len(parse_csv(out)), len(block_counts), len(root_walks)] == expected, argv


def test_verify_takes_each_chain_text_once(capsys, monkeypatch):
    # A row holds its chain's text; the text is written once per chain,
    # not once per row.
    calls = []
    text = chainperm.ChainSpec.text

    def spy(chain):
        calls.append(chain)
        return text(chain)

    monkeypatch.setattr(chainperm.ChainSpec, "text", spy)
    code, out, _ = run_cli(capsys, "verify", "--tags", "all", "--n-max", "20", "--force")
    assert code == 1
    assert len(parse_csv(out)) > 18 * 19
    assert len(calls) == len(set(calls)) == 18


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


def test_start_up_imports_only_what_a_run_uses():
    # No run needs dataclasses, nor the inspect it imports; only a JSON
    # report needs json, and only a process pool signal and multiprocessing.
    # pytest and hypothesis import dataclasses themselves, so each check
    # runs in a fresh interpreter, next to a bare one for what the
    # interpreter's own start-up imports.
    deferred = ("dataclasses", "inspect", "json", "signal", "multiprocessing")
    report = f"import sys; print(sorted(set({deferred!r}) & set(sys.modules)), file=sys.stderr)"
    run_count = (
        "import runpy, sys\n"
        "sys.argv = ['chainperm', 'count', '--chain', '312:312', '--n-max', '1']\n"
        "try:\n"
        "    runpy.run_module('chainperm', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exit:\n"
        "    assert exit.code == 0, exit.code\n"
    )
    bare = run_child([sys.executable, "-c", report])
    assert bare.returncode == 0, describe(bare)
    imported = run_child([sys.executable, "-c", "import chainperm.cli\n" + report])
    assert imported.returncode == 0, describe(imported)
    assert imported.stderr == bare.stderr
    counted = run_child([sys.executable, "-c", run_count + report])
    assert counted.returncode == 0, describe(counted)
    assert counted.stdout.splitlines()[1:] == ["1,312:312,1,,,true,1"]
    assert counted.stderr == bare.stderr


def loaded_modules(code):
    """The chainperm modules a fresh interpreter holds after running code."""
    report = "\nimport sys; print(sorted(m for m in sys.modules if m.startswith('chainperm')))"
    result = run_child([sys.executable, "-c", code + report])
    assert result.returncode == 0, describe(result)
    return ast.literal_eval(result.stdout.splitlines()[-1])


def test_package_loads_a_module_when_one_of_its_names_is_read():
    # chainperm/__init__.py lists each public name under the module that
    # defines it and imports that module when the name is first read.
    assert loaded_modules("import chainperm") == ["chainperm"]
    assert loaded_modules("import chainperm; hasattr(chainperm, 'nope')") == ["chainperm"]
    assert loaded_modules("from chainperm import Permutation") == ["chainperm", "chainperm.perm"]
    assert "chainperm.enumeration" in loaded_modules("from chainperm import enumeration")
    # The command line imports every library module at start-up, as
    # perfbench/tracing.py wraps names of chainperm.cli that they define.
    library = ("chains", "cli", "enumeration", "formulas", "patterns", "perm", "structure")
    assert loaded_modules("import chainperm.cli") == ["chainperm"] + [
        f"chainperm.{name}" for name in library
    ]


def test_every_exported_name_resolves_and_star_import_binds_them_all():
    # In a fresh interpreter, so that each name is first read through the
    # package's __getattr__.
    code = (
        "import importlib, chainperm\n"
        "assert chainperm.__all__ == sorted(chainperm.__all__) and len(chainperm.__all__) == 29\n"
        "assert {'__all__', '__version__', *chainperm.__all__} <= set(dir(chainperm))\n"
        "names = {}\n"
        "exec('from chainperm import *', names)\n"
        "assert sorted(set(names) - {'__builtins__'}) == chainperm.__all__\n"
        "assert set(chainperm.__all__) <= set(vars(chainperm))\n"
        "for name in chainperm.__all__:\n"
        "    owner = importlib.import_module('chainperm.' + chainperm._MODULE_OF[name])\n"
        "    assert names[name] is getattr(chainperm, name) is getattr(owner, name), name\n"
        "try:\n"
        "    chainperm.nope\n"
        "except AttributeError as error:\n"
        "    print(error)\n"
    )
    result = run_child([sys.executable, "-c", code])
    assert result.returncode == 0, describe(result)
    assert result.stdout == "module 'chainperm' has no attribute 'nope'\n"
    # A private name of a library module is not a name of the package.
    with pytest.raises(AttributeError, match="'_counts'"):
        chainperm._counts


def test_version_matches_pyproject():
    assert chainperm.__version__ == declared_project()["version"]


def test_importing_the_cli_compiles_no_matcher():
    # Each pattern's search and each chain predicate is compiled on first
    # use, never at start-up.
    code = (
        "import chainperm.cli, chainperm.patterns as p, chainperm.chains as c; "
        "print(p._matcher.cache_info().currsize, c._chain_predicate.cache_info().currsize)"
    )
    result = run_child([sys.executable, "-c", code])
    assert result.returncode == 0, describe(result)
    assert result.stdout == "0 0\n"


def test_table_chains_compile_nothing():
    # The 18 table chains are counted over sums of blocks, which builds no
    # word: counting them all to n = 8 compiles no search and no predicate.
    code = (
        "import chainperm as cp, chainperm.chains as c, chainperm.patterns as p\n"
        "chains = [ch for f in cp.formula_table() for ch in (f.chain_231, f.chain_312)]\n"
        "for chain in chains:\n"
        "    cp.count_chain(8, chain)\n"
        "print(len(chains), p._matcher.cache_info().currsize,"
        " c._chain_predicate.cache_info().currsize)"
    )
    result = run_child([sys.executable, "-c", code])
    assert result.returncode == 0, describe(result)
    assert result.stdout == "18 0 0\n"


def test_deep_chain_compiles_one_predicate():
    # A chain whose tree does not prune grows the tree of its level 1
    # alone, which needs no predicate: counting compiles the deeper one.
    code = (
        "import chainperm as cp, chainperm.chains as c\n"
        "cp.count_chain(7, cp.parse_chain('13245:2143:312'))\n"
        "print(c._chain_predicate.cache_info().currsize)"
    )
    result = run_child([sys.executable, "-c", code])
    assert result.returncode == 0, describe(result)
    assert result.stdout == "1\n"


def load_tracing():
    path = PYPROJECT.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_readme_package_names_are_exported():
    # The identifiers in backticks in README's "The package provides:" list,
    # bar the chainperm script, are the public names of the package.
    readme = (PYPROJECT.parent / "README.md").read_text()
    listing = readme.split("The package provides:", 1)[1].split("## The formula table", 1)[0]
    names = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", listing)) - {"chainperm"}
    assert {"Permutation", "count_chain", "walk_chain_avoiders"} <= names
    assert sorted(names - set(chainperm.__all__)) == []


def test_sources_parse_at_the_declared_python_floor():
    # The suite may run on a newer Python than the floor, so parse every
    # source as the oldest Python that pyproject.toml admits would.
    requires = declared_project()["requires-python"]
    floor = re.fullmatch(r">=\s*(\d+)\.(\d+)", requires)
    assert floor, requires
    version = (int(floor[1]), int(floor[2]))
    paths = sorted((PYPROJECT.parent / "src").rglob("*.py")) + sorted(
        (PYPROJECT.parent / "tests").rglob("*.py")
    )
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)


def test_tracer_names_exist_in_cli():
    # perfbench/run.py --trace 1 replaces these chainperm.cli names by wrappers.
    tracing = load_tracing()
    names = [*tracing.SPANNED, *tracing.COUNTED]
    assert names
    assert [name for name in names if not hasattr(chainperm.cli, name)] == []


def test_probe_names_exist_in_chainperm():
    # perfbench/probe.py calls these chainperm names, and count_chain with
    # jobs=, on every perfbench/run.py --trace 1 run.
    tree = ast.parse((PYPROJECT.parent / "perfbench" / "probe.py").read_text())
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cp"
    }
    assert "count_chain" in names
    assert sorted(name for name in names if not hasattr(chainperm, name)) == []
    assert chainperm.count_chain(3, chainperm.parse_chain("312"), jobs=2).total == 5


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
    assert {*tracing.SPANNED.values(), *tracing.COUNTED.values()} <= called


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


def declared_project():
    """The ``[project]`` table of pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["project"]


def declared_entry_point(name):
    """Split the ``[project.scripts]`` target of ``name`` into module and attribute."""
    module, _, attr = declared_project()["scripts"][name].partition(":")
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
    # group, as Ctrl-C does. The child gets SIGINT's default action, as a
    # terminal's foreground job has: a background job of a non-interactive
    # shell starts with SIGINT ignored, and Popen would pass that on.
    argv = [sys.executable, "-m", "chainperm", "count", "--chain", "312", "--n-max", "14", "--jobs", "2"]
    started = time.monotonic()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(),
        start_new_session=True, preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
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
        # If the count has already ended, a later exit 0 is the test's timing,
        # not a SIGINT the program ignored.
        assert proc.poll() is None, (
            f"the count ended (exit {proc.returncode}) before SIGINT was sent, "
            f"{time.monotonic() - started:.2f} s after Popen"
        )
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
