"""Verification command line.

Four subcommands, one report schema.  Every report is a table with the
columns n, chain, brute_force, formula, tag, agree, refinement, written
as CSV (default) or JSON.  Reports are deterministic: the same
arguments produce byte-identical output regardless of --jobs.  Each
subcommand returns its rows and its problem lines; main writes the
report once, then the problem lines to stderr.  Each chain's generating
tree is walked once, to n_max: count, verify and symmetry take their
counts from _count_all, which asks for n_max first, so that the smaller
n are lookups; structure takes its candidates of every size from one
walk of Av(312).

  count      brute-force totals of one chain for n = 1..n_max, with the
             count split by the position of the value 1
  verify     brute force against the closed form for chosen table rows,
             on both chains of each row
  symmetry   brute force on the two chains of every row, checking that
             the mirrored counts agree
  structure  check that the strong 312 avoiders ending in 1 are exactly
             the unimodal words.  The candidates are the words ending in
             1 that avoid 312: a final 1 takes part in no 312, so these
             are the Av_{n-1}(312) words of the generating tree, shifted
             up by one, with 1 appended.  Every unimodal form must also
             avoid 312 and classify to itself

Exit codes: 0 all checks agree, 1 exactly when a problem line (a
disagreement or counterexample) is printed, 2 usage or parse error or
an unwritable --out, 130 interrupted (Ctrl-C).  verify's "no rows"
notice is not a problem line and exits 0.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

from .chains import parse_chain, strongly_avoids
from .enumeration import MAX_ENUMERATION_N, count_chain, walk_chain_avoiders
from .formulas import evaluate, formula_by_tag, formula_table
from .patterns import find_occurrence, parse_pattern
from .perm import Permutation
from .structure import breakpoint_range, classify_strong_312_ending_in_1, unimodal_forms

_FIELDS = ("n", "chain", "brute_force", "formula", "tag", "agree", "refinement")

_PATTERN_312 = parse_pattern("312")
_CHAIN_312 = parse_chain("312")


@dataclass(frozen=True)
class VerificationRow:
    """One report line: a brute-force count next to its reference value.

    formula holds whatever the row is checked against (a closed form,
    or the mirrored chain's count); the row agrees when the two values
    match, or when there is nothing to match.
    """

    n: int
    chain: str
    brute_force: int
    formula: int | None = None
    tag: str | None = None
    refinement: tuple[int, ...] | None = None

    @property
    def agree(self) -> bool:
        return self.formula is None or self.formula == self.brute_force

    def csv_fields(self) -> list[str]:
        return [
            str(self.n),
            self.chain,
            str(self.brute_force),
            "" if self.formula is None else str(self.formula),
            self.tag or "",
            "true" if self.agree else "false",
            "" if self.refinement is None else ",".join(str(c) for c in self.refinement),
        ]

    def json_object(self) -> dict:
        return {
            "n": self.n,
            "chain": self.chain,
            "brute_force": self.brute_force,
            "formula": self.formula,
            "tag": self.tag,
            "agree": self.agree,
            "refinement": None if self.refinement is None else list(self.refinement),
        }


Outcome = tuple[list[VerificationRow], list[str]]


def render_report(rows: list[VerificationRow], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([row.json_object() for row in rows], indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_FIELDS)
    for row in rows:
        writer.writerow(row.csv_fields())
    return buffer.getvalue()


def _count_all(args: argparse.Namespace, chains) -> dict:
    """Every count_chain result of the chains for n = 1..n_max, keyed by
    (n, chain).  Each chain is asked for n_max first, which walks its tree
    once; the smaller sizes are then lookups in count_chain's memo."""
    return {
        (n, chain): count_chain(n, chain, jobs=args.jobs, force=args.force)
        for chain in chains
        for n in range(args.n_max, 0, -1)
    }


def cmd_count(args: argparse.Namespace) -> Outcome:
    chain = parse_chain(args.chain)
    counts = _count_all(args, [chain])
    rows = []
    for n in range(1, args.n_max + 1):
        ref = counts[n, chain]
        rows.append(
            VerificationRow(n, chain.text(), ref.total, refinement=ref.by_position_of_one)
        )
    return rows, []


def _selected_formulas(tags_text: str):
    if tags_text.strip().lower() == "all":
        return formula_table()
    tags = dict.fromkeys(tag.strip() for tag in tags_text.split(","))
    return [formula_by_tag(tag) for tag in tags]


def cmd_verify(args: argparse.Namespace) -> Outcome:
    formulas = [f for f in _selected_formulas(args.tags) if f.valid_from <= args.n_max]
    counts = _count_all(args, [c for f in formulas for c in (f.chain_231, f.chain_312)])
    rows, problems = [], []
    for formula in formulas:
        for n in range(formula.valid_from, args.n_max + 1):
            expected = evaluate(formula, n)
            for side, chain in (("231", formula.chain_231), ("312", formula.chain_312)):
                got = counts[n, chain].total
                rows.append(VerificationRow(n, chain.text(), got, expected, formula.tag))
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
    formulas = formula_table()
    counts = _count_all(args, [c for f in formulas for c in (f.chain_231, f.chain_312)])
    rows, problems = [], []
    for formula in formulas:
        for n in range(1, args.n_max + 1):
            left = counts[n, formula.chain_231].total
            right = counts[n, formula.chain_312].total
            rows.append(VerificationRow(n, formula.chain_231.text(), left, right, formula.tag))
            if left != right:
                problems.append(
                    f"mirror count mismatch: tag={formula.tag} n={n} "
                    f"chain_231 count={left} chain_312 count={right}"
                )
    return rows, problems[:1]


def _describe_structure_witness(pi: Permutation) -> str:
    occurrence = find_occurrence(pi, _PATTERN_312)
    if occurrence is not None:
        return f"{pi.text()} itself contains 312 at positions {occurrence}"
    square = pi.power(2)
    occurrence = find_occurrence(square, _PATTERN_312)
    if occurrence is not None:
        return (
            f"the square of {pi.text()} is {square.text()}, "
            f"which contains 312 at positions {occurrence}"
        )
    return f"{pi.text()} and its square {square.text()} both avoid 312"


def cmd_structure(args: argparse.Namespace) -> Outcome:
    sizes = range(1, args.n_max + 1)
    strong_words = {n: set() for n in sizes}
    classified_words = {n: set() for n in sizes}
    witnesses = {}
    # A strong 312 avoider avoids 312, and a word ending in 1 avoids 312
    # exactly when its first n - 1 entries do: the 1 could only play the
    # final "2" of an occurrence, which is larger than its "1".  One walk
    # of Av(312) gives those first n - 1 entries for every n at once.
    for tail in walk_chain_avoiders(args.n_max - 1, _CHAIN_312, force=args.force):
        word = tuple(v + 1 for v in tail) + (1,)
        n = len(word)
        pi = Permutation(word)
        is_strong = strongly_avoids(pi, _PATTERN_312)
        k = classify_strong_312_ending_in_1(pi)
        if is_strong:
            strong_words[n].add(word)
        if k is not None:
            classified_words[n].add(word)
        if is_strong != (k is not None):
            witnesses[n] = min(witnesses.get(n, word), word)
    rows, problems = [], []
    for n in sizes:
        strong, classified = strong_words[n], classified_words[n]
        # agree compares the counts, as the report schema defines it; a set
        # difference of equal size is caught by the witnesses above.
        rows.append(
            VerificationRow(
                n, "312:312", len(strong), len(classified), refinement=tuple(breakpoint_range(n))
            )
        )
        # The classifier accepts only unimodal forms, so this check stands for
        # the words outside Av(312) that the candidates leave out: every form
        # must avoid 312 and classify to itself.
        forms = {form.values for form in unimodal_forms(n)}
        if classified != forms:
            problems.append(
                f"form count mismatch at n={n}: {len(classified)} words classified, "
                f"{len(forms)} unimodal forms"
            )
    if witnesses:
        # The lexicographically first witness of the smallest size.
        n = min(witnesses)
        witness = _describe_structure_witness(Permutation(witnesses[n]))
        problems.append(f"counterexample at n={n}: {witness}")
    return rows, problems


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainperm",
        description="Brute-force verification of chain pattern avoidance counts.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="report format"
    )
    common.add_argument("--out", help="write the report to this file instead of stdout")
    common.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        help="worker processes for the enumeration (default: all cores)",
    )
    common.add_argument(
        "--force",
        action="store_true",
        help="allow sizes above the enumeration bound",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser(
        "count", parents=[common], help="brute-force totals for one chain"
    )
    count.add_argument("--chain", required=True, help="chain text, e.g. '312,231:312'")
    count.add_argument("--n-max", type=int, default=9, help="largest size to count")
    count.set_defaults(func=cmd_count)

    verify = sub.add_parser(
        "verify", parents=[common], help="check closed forms against brute force"
    )
    verify.add_argument(
        "--tags",
        default="all",
        help="comma-separated formula tags, or 'all' (default)",
    )
    verify.add_argument("--n-max", type=int, default=8, help="largest size to check")
    verify.set_defaults(func=cmd_verify)

    structure = sub.add_parser(
        "structure",
        parents=[common],
        help="check the unimodal shape of strong 312 avoiders ending in 1",
    )
    structure.add_argument("--n-max", type=int, default=9, help="largest size to check")
    structure.set_defaults(func=cmd_structure)

    symmetry = sub.add_parser(
        "symmetry",
        parents=[common],
        help="check that mirrored chains have equal counts",
    )
    symmetry.add_argument("--n-max", type=int, default=8, help="largest size to check")
    symmetry.set_defaults(func=cmd_symmetry)
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
    if args.n_max > MAX_ENUMERATION_N and not args.force:
        print(
            f"error: --n-max {args.n_max} is above the supported enumeration bound "
            f"{MAX_ENUMERATION_N}; pass --force to run anyway",
            file=sys.stderr,
        )
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
