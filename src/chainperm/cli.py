"""Verification command line.

Four subcommands, one report schema.  Every report is a table with the
columns n, chain, brute_force, formula, tag, agree, refinement, written
as CSV (default) or JSON.  Reports are deterministic: the same
arguments produce byte-identical output regardless of --jobs.  Each
subcommand returns its rows and its problem lines; main writes the
report once, then the problem lines to stderr.  Each chain is counted
once, to n_max: count, verify and symmetry take their counts from
_count_all, which asks for n_max first, so that the smaller n are
lookups; structure takes the strong 312 avoiders of every size from one
walk of the tree of 312:312, and checks them against the counts of
312:312 from _count_all.

  count      exact totals of one chain for n = 1..n_max, with the
             count split by the position of the value 1
  verify     exact counts against the closed form for chosen table rows,
             on both chains of each row
  symmetry   exact counts of the two chains of every row, checking that
             the mirrored counts agree
  structure  check that the strong 312 avoiders ending in 1 are exactly
             the unimodal words.  The tree of 312:312 prunes at level 2,
             so it holds exactly the strong 312 avoiders (see
             enumeration.py).  Each of them that ends in 1 must classify,
             the classified words must be the unimodal forms, and the
             number of those that end in 1 must equal the count of
             312:312 over blocks whose 1 sits last

Exit codes: 0 all checks agree, 1 exactly when a problem line (a
disagreement or counterexample) is printed, 2 usage or parse error or
an unwritable --out, 130 interrupted (Ctrl-C).  verify's "no rows"
notice is not a problem line and exits 0.
"""

import argparse
import contextlib
import csv
import io
import os
import sys

# strongly_avoids is not called here, but perfbench/tracing.py wraps it by
# this name.
from .chains import parse_chain, strongly_avoids  # noqa: F401
from .enumeration import count_chain, walk_chain_avoiders
from .formulas import evaluate, formula_by_tag, formula_table
from .perm import Permutation
from .structure import breakpoint_range, classify_strong_312_ending_in_1, unimodal_forms

_FIELDS = ("n", "chain", "brute_force", "formula", "tag", "agree", "refinement")

_CHAIN_312_312 = parse_chain("312:312")


def _row(
    n: int,
    chain: str,
    brute_force: int,
    formula: int | None = None,
    tag: str | None = None,
    refinement: tuple[int, ...] | range | None = None,
) -> dict:
    """One report line: an exact count next to its reference value.

    formula holds whatever the row is checked against (a closed form,
    or the mirrored chain's count); the row agrees when the two values
    match, or when there is nothing to match.  The dict is the row's
    JSON object, keyed by _FIELDS in order.
    """
    return {
        "n": n,
        "chain": chain,
        "brute_force": brute_force,
        "formula": formula,
        "tag": tag,
        "agree": formula is None or formula == brute_force,
        "refinement": None if refinement is None else list(refinement),
    }


Outcome = tuple[list[dict], list[str]]


def _cell(value) -> str:
    # bool before the str() fallback, which would write True as "True".
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(map(str, value))
    return str(value)


def render_report(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        # Imported only for JSON reports, so that CSV runs do not pay for it.
        import json

        return json.dumps(rows, indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_FIELDS)
    for row in rows:
        writer.writerow(map(_cell, row.values()))
    return buffer.getvalue()


def _count_all(args: argparse.Namespace, chains) -> dict:
    """Every count_chain result of the chains for n = 1..n_max, keyed by
    (n, chain).  Each chain is asked for n_max first, which counts it
    once; the smaller sizes are then lookups in count_chain's memo."""
    return {
        (n, chain): count_chain(n, chain, jobs=args.jobs, force=args.force)
        for chain in chains
        for n in range(args.n_max, 0, -1)
    }


def cmd_count(args: argparse.Namespace) -> Outcome:
    chain = parse_chain(args.chain)
    counts = _count_all(args, [chain])
    text = chain.text()
    rows = []
    for n in range(1, args.n_max + 1):
        ref = counts[n, chain]
        rows.append(_row(n, text, ref.total, refinement=ref.by_position_of_one))
    return rows, []


def _selected_formulas(tags_text: str):
    if tags_text.strip().lower() == "all":
        return formula_table()
    tags = dict.fromkeys(tag.strip() for tag in tags_text.split(","))
    return [formula_by_tag(tag) for tag in tags]


def cmd_verify(args: argparse.Namespace) -> Outcome:
    formulas = [f for f in _selected_formulas(args.tags) if f.valid_from <= args.n_max]
    by_row = [(f, (f.chain_231, f.chain_312)) for f in formulas]
    chains = [c for _, pair in by_row for c in pair]
    counts = _count_all(args, chains)
    texts = {chain: chain.text() for chain in chains}
    rows, problems = [], []
    for formula, pair in by_row:
        for n in range(formula.valid_from, args.n_max + 1):
            expected = evaluate(formula, n)
            for side, chain in zip(("231", "312"), pair):
                got = counts[n, chain].total
                rows.append(_row(n, texts[chain], got, expected, formula.tag))
                if got != expected:
                    problems.append(
                        f"disagreement: tag={formula.tag} n={n} side={side} "
                        f"brute_force={got} formula={expected}"
                    )
    if not rows:
        print("no rows: every selected formula starts above n_max", file=sys.stderr)
    # Only the first failure is printed; the table benchmark compares that line.
    return rows, problems[:1]


def cmd_symmetry(args: argparse.Namespace) -> Outcome:
    by_row = [(f, (f.chain_231, f.chain_312)) for f in formula_table()]
    counts = _count_all(args, [c for _, pair in by_row for c in pair])
    rows, problems = [], []
    for formula, (chain_231, chain_312) in by_row:
        text = chain_231.text()
        for n in range(1, args.n_max + 1):
            left = counts[n, chain_231].total
            right = counts[n, chain_312].total
            rows.append(_row(n, text, left, right, formula.tag))
            if left != right:
                problems.append(
                    f"mirror count mismatch: tag={formula.tag} n={n} "
                    f"chain_231 count={left} chain_312 count={right}"
                )
    return rows, problems[:1]


def cmd_structure(args: argparse.Namespace) -> Outcome:
    ending_in_1 = {n: [] for n in range(1, args.n_max + 1)}
    # The tree of 312:312 holds exactly the strong 312 avoiders, so one walk
    # gives those that end in 1 for every n at once.
    for word in walk_chain_avoiders(args.n_max, _CHAIN_312_312, force=args.force):
        if word and word[-1] == 1:
            ending_in_1[len(word)].append(word)
    # The block program counts the same words: those whose first block, the
    # one that holds the 1, is the whole word.  It and the walk's pruning both
    # rest on step 2 of the proof in enumeration.py.  Criterion 4 and
    # tests/test_cli.py::test_structure_report_matches_scan_oracle assume
    # neither: they scan every word that ends in 1 for n <= 9.
    counts = _count_all(args, [_CHAIN_312_312])
    text = _CHAIN_312_312.text()
    rows, problems, witness = [], [], None
    for n, words in ending_in_1.items():
        classified = {
            w for w in words if classify_strong_312_ending_in_1(Permutation(w)) is not None
        }
        rows.append(_row(n, text, len(words), len(classified), refinement=breakpoint_range(n)))
        forms = {form.values for form in unimodal_forms(n)}
        if classified != forms:
            problems.append(
                f"form count mismatch at n={n}: {len(classified)} words classified, "
                f"{len(forms)} unimodal forms"
            )
        counted = counts[n, _CHAIN_312_312].by_position_of_one[-1]
        if counted != len(words):
            problems.append(
                f"ending-in-1 count mismatch at n={n}: the walk finds {len(words)}, "
                f"the block count gives {counted}"
            )
        if witness is None and len(classified) < len(words):
            # The lexicographically first witness of the smallest size.
            witness = Permutation(min(set(words) - classified))
    if witness is not None:
        problems.append(
            f"counterexample at n={len(witness)}: {witness.text()} and its square "
            f"{witness.power(2).text()} both avoid 312"
        )
    return rows, problems


# Each subcommand's name, function, default --n-max and help line.
_COMMANDS = (
    ("count", cmd_count, 9, "exact totals for one chain"),
    ("verify", cmd_verify, 8, "check closed forms against exact counts"),
    ("structure", cmd_structure, 9, "check the unimodal shape of strong 312 avoiders ending in 1"),
    ("symmetry", cmd_symmetry, 8, "check that mirrored chains have equal counts"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainperm", description="Exact-count verification of chain pattern avoidance counts."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, n_max, summary in _COMMANDS:
        command = sub.add_parser(name, help=summary)
        command.set_defaults(func=func)
        add = command.add_argument
        add("--format", choices=("csv", "json"), default="csv", help="report format")
        add("--out", help="write the report to this file instead of stdout")
        add(
            "--jobs",
            type=int,
            default=os.cpu_count() or 1,
            help="worker processes (default: all cores); only count of a chain whose "
            "tree is walked can open a pool, so verify, symmetry and structure run "
            "the same with any value",
        )
        add("--force", action="store_true", help="allow sizes above the enumeration bound")
        add("--n-max", type=int, default=n_max, help="largest size to report")
    sub.choices["count"].add_argument(
        "--chain", required=True, help="chain text, e.g. '312,231:312'"
    )
    sub.choices["verify"].add_argument(
        "--tags", default="all", help="comma-separated formula tags, or 'all' (default)"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n_max < 1:
        print("error: --n-max must be >= 1", file=sys.stderr)
        return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2
    try:
        # --out is opened before any counting, so that an unwritable path
        # fails at once; like a shell redirection, it is emptied even when
        # the run then fails.
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as report:
            rows, problems = args.func(args)
            report.write(render_report(rows, args.format))
        for line in problems:
            print(line, file=sys.stderr)
        return 1 if problems else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
