"""Verification command line.

Four subcommands, one report schema.  Every report is a table with the
columns n, chain, brute_force, formula, tag, agree, refinement, written
as CSV (default) or JSON.  Reports are deterministic: the same
arguments produce byte-identical output regardless of --jobs.  Each
chain's generating tree is walked once, to n_max: count, verify and
symmetry first call count_chain at n_max for every chain they report,
and their rows for smaller n are lookups; structure takes its
candidates of every size from one walk of Av(312).

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

Exit codes: 0 all checks agree, 1 a disagreement or counterexample was
found, 2 usage or parse error or an unwritable --out, 130 interrupted
(Ctrl-C).
"""

import argparse
import contextlib
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from typing import TextIO

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
    or the mirrored chain's count); agree must state whether the two
    values match, and must be true when there is nothing to match.
    """

    n: int
    chain: str
    brute_force: int
    formula: int | None = None
    tag: str | None = None
    agree: bool = True
    refinement: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        expected = self.formula is None or self.formula == self.brute_force
        if self.agree != expected:
            raise ValueError("agree must reflect the formula comparison")

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


def render_report(rows: list[VerificationRow], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([row.json_object() for row in rows], indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_FIELDS)
    for row in rows:
        writer.writerow(row.csv_fields())
    return buffer.getvalue()


def cmd_count(args: argparse.Namespace, report: TextIO) -> int:
    chain = parse_chain(args.chain)
    count_chain(args.n_max, chain, jobs=args.jobs, force=args.force)
    rows = []
    for n in range(1, args.n_max + 1):
        ref = count_chain(n, chain, jobs=args.jobs, force=args.force)
        rows.append(
            VerificationRow(
                n=n,
                chain=chain.text(),
                brute_force=ref.total,
                refinement=ref.by_position_of_one,
            )
        )
    report.write(render_report(rows, args.format))
    return 0


def _selected_formulas(tags_text: str):
    if tags_text.strip().lower() == "all":
        return formula_table()
    return [formula_by_tag(tag.strip()) for tag in tags_text.split(",")]


def cmd_verify(args: argparse.Namespace, report: TextIO) -> int:
    formulas = _selected_formulas(args.tags)
    for formula in formulas:
        if formula.valid_from <= args.n_max:
            for chain in (formula.chain_231, formula.chain_312):
                count_chain(args.n_max, chain, jobs=args.jobs, force=args.force)
    rows = []
    failures = []
    for formula in formulas:
        for n in range(formula.valid_from, args.n_max + 1):
            expected = evaluate(formula, n)
            for side, chain in (("231", formula.chain_231), ("312", formula.chain_312)):
                got = count_chain(n, chain, jobs=args.jobs, force=args.force).total
                agree = got == expected
                rows.append(
                    VerificationRow(
                        n=n,
                        chain=chain.text(),
                        brute_force=got,
                        formula=expected,
                        tag=formula.tag,
                        agree=agree,
                    )
                )
                if not agree:
                    failures.append((formula.tag, n, side, got, expected))
    if not rows:
        print("no rows: every selected formula starts above n_max", file=sys.stderr)
    report.write(render_report(rows, args.format))
    if failures:
        tag, n, side, got, expected = failures[0]
        print(
            f"disagreement: tag={tag} n={n} side={side} "
            f"brute_force={got} formula={expected}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_symmetry(args: argparse.Namespace, report: TextIO) -> int:
    for formula in formula_table():
        for chain in (formula.chain_231, formula.chain_312):
            count_chain(args.n_max, chain, jobs=args.jobs, force=args.force)
    rows = []
    failures = []
    for formula in formula_table():
        for n in range(1, args.n_max + 1):
            left = count_chain(n, formula.chain_231, jobs=args.jobs, force=args.force).total
            right = count_chain(n, formula.chain_312, jobs=args.jobs, force=args.force).total
            agree = left == right
            rows.append(
                VerificationRow(
                    n=n,
                    chain=formula.chain_231.text(),
                    brute_force=left,
                    formula=right,
                    tag=formula.tag,
                    agree=agree,
                )
            )
            if not agree:
                failures.append((formula.tag, n, left, right))
    report.write(render_report(rows, args.format))
    if failures:
        tag, n, left, right = failures[0]
        print(
            f"mirror count mismatch: tag={tag} n={n} "
            f"chain_231 count={left} chain_312 count={right}",
            file=sys.stderr,
        )
        return 1
    return 0


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


def cmd_structure(args: argparse.Namespace, report: TextIO) -> int:
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
    rows = []
    form_mismatches = []
    for n in sizes:
        strong, classified = strong_words[n], classified_words[n]
        # agree compares the counts, as the report schema defines it; a set
        # difference of equal size is caught by the witnesses above.
        rows.append(
            VerificationRow(
                n=n,
                chain="312:312",
                brute_force=len(strong),
                formula=len(classified),
                agree=len(strong) == len(classified),
                refinement=tuple(breakpoint_range(n)),
            )
        )
        # The classifier accepts only unimodal forms, so this check stands for
        # the words outside Av(312) that the candidates leave out: every form
        # must avoid 312 and classify to itself.
        forms = {form.values for form in unimodal_forms(n)}
        if classified != forms:
            form_mismatches.append((n, len(classified), len(forms)))
    report.write(render_report(rows, args.format))
    for n, classified, forms in form_mismatches:
        print(
            f"form count mismatch at n={n}: {classified} words classified, "
            f"{forms} unimodal forms",
            file=sys.stderr,
        )
    if witnesses:
        # The lexicographically first witness of the smallest size.
        n = min(witnesses)
        witness = _describe_structure_witness(Permutation(witnesses[n]))
        print(f"counterexample at n={n}: {witness}", file=sys.stderr)
    return 1 if witnesses or form_mismatches else 0


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
            return args.func(args, report)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
