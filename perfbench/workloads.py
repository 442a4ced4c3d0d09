"""The benchmark's workloads: which CLI commands run, and what they must print.

Every workload is a list of CLI invocations (the arguments after
`python -m chainperm`) together with a checker that compares what those
invocations printed against references.  The checker counts every report
row, exit code and stderr line it expected as attempted, and every one that
differs, is missing or is extra as failed.

  table        verify --tags all, then symmetry, both at N_TABLE with two
               jobs.  Byte-compared with refs/table-*.  Seed-independent.
  deep-chains  count for DEEP_DRAWS chains drawn from DEEP_POOL by the
               seed, each with one pattern of length 5, 4 and 3 at levels
               1, 2 and 3, and for the reverse complement of each, with one
               job.  Rows up to ORACLE_N_MAX are checked against the scan
               oracle in tests/helpers.py; every larger row must match the
               row of the reverse-complement chain; for DEFAULT_SEED the
               whole output is byte-compared with
               refs/deep-chains-seed<seed>.csv.
  structure    structure --n-max N_STRUCTURE in JSON.  Byte-compared with
               refs/structure.json.  Seed-independent.
"""

import csv
import io
import json
import math
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

N_TABLE = 8
N_DEEP = 8
N_STRUCTURE = 10
DEEP_DRAWS = 2
ORACLE_N_MAX = 7
DEFAULT_SEED = 1

# The chains deep-chains draws from, one pattern of length 5, 4 and 3 per
# level.  64 such chains were drawn at random.  Counting one of them and its
# reverse complement at n = 8 takes work (calls into the containment search
# plus its loop steps, counted exactly) that varies by 6 %
# (coefficient of variation) between chains, which the seed would add to
# every timing.  Only the chains within 2 % of the median work were kept.
DEEP_POOL = (
    "13245:2143:312",
    "13452:1342:231",
    "14523:2314:312",
    "21453:4132:321",
    "23415:3241:312",
    "24135:3124:213",
    "25314:3241:132",
    "32415:2134:231",
    "42153:3241:213",
    "42351:1423:213",
    "45231:3214:312",
    "45312:3421:123",
    "51342:2431:123",
    "51423:1243:312",
    "51432:1423:312",
    "54123:1423:231",
    "54231:3124:321",
    "54312:3124:312",
)

REFS = Path(__file__).resolve().parent / "refs"

# The only line `verify --tags all` may print on stderr: the documented T31
# disagreement, which the verifier must keep reporting (and exit 1 on).
T31_DISAGREEMENT = "disagreement: tag=T31 n=5 side=231 brute_force=6 formula=7"


@dataclass(frozen=True)
class Invocation:
    label: str
    args: tuple[str, ...]


@dataclass
class Output:
    stdout: str
    stderr: str
    returncode: int


@dataclass
class Tally:
    """Expected items checked, and how many of them differed."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[: max(0, 20 - len(self.notes))])

    def compare_lines(self, what: str, got: str, expected: str) -> None:
        got_lines = got.splitlines()
        want_lines = expected.splitlines()
        self.attempted += len(want_lines)
        for i in range(max(len(got_lines), len(want_lines))):
            g = got_lines[i] if i < len(got_lines) else None
            w = want_lines[i] if i < len(want_lines) else None
            if g != w:
                self.failed += 1
                self.note(f"{what} line {i + 1}: got {g!r}, expected {w!r}")

    def compare_code(self, what: str, got: int, expected: int) -> None:
        self.attempted += 1
        if got != expected:
            self.failed += 1
            self.note(f"{what}: exit code {got}, expected {expected}")

    def note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)


class Workload:
    """A fixed list of invocations, a word count and an output checker."""

    name: str
    invocations: list[Invocation]
    # Words decided by one pass over the invocations: n! for every
    # (chain, n) counted, or (n - 1)! per size for structure.
    words: int
    # The chains the workload counts, and the largest n it counts them at.
    chains: list[str]
    top_n: int

    def check(self, outputs: list[Output]) -> Tally:
        raise NotImplementedError

    def final_counts(self, outputs: list[Output]) -> int:
        """Avoiders found in one pass: the numerator of useful_frac."""
        raise NotImplementedError


def _read_ref(name: str) -> str:
    return (REFS / name).read_text()


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


class Table(Workload):
    name = "table"

    def __init__(self) -> None:
        common = ("--n-max", str(N_TABLE), "--jobs", "2", "--format", "csv")
        self.invocations = [
            Invocation("verify", ("verify", "--tags", "all", *common)),
            Invocation("symmetry", ("symmetry", *common)),
        ]
        self.refs = [_read_ref("table-verify.csv"), _read_ref("table-symmetry.csv")]
        verify_rows = _csv_rows(self.refs[0])[1:]
        self.chains = list(dict.fromkeys(r[1] for r in verify_rows))
        self.top_n = N_TABLE
        symmetry_rows = _csv_rows(self.refs[1])[1:]
        # A verify row is one count; a symmetry row counts both chains.
        self.words = sum(math.factorial(int(r[0])) for r in verify_rows) + sum(
            2 * math.factorial(int(r[0])) for r in symmetry_rows
        )

    def check(self, outputs: list[Output]) -> Tally:
        tally = Tally()
        verify, symmetry = outputs
        tally.compare_lines("verify report", verify.stdout, self.refs[0])
        tally.compare_lines("verify stderr", verify.stderr, T31_DISAGREEMENT + "\n")
        tally.compare_code("verify", verify.returncode, 1)
        tally.compare_lines("symmetry report", symmetry.stdout, self.refs[1])
        tally.compare_lines("symmetry stderr", symmetry.stderr, "")
        tally.compare_code("symmetry", symmetry.returncode, 0)
        return tally

    def final_counts(self, outputs: list[Output]) -> int:
        verify, symmetry = outputs
        return sum(int(r[2]) for r in _csv_rows(verify.stdout)[1:]) + sum(
            int(r[2]) + int(r[3]) for r in _csv_rows(symmetry.stdout)[1:]
        )


class Structure(Workload):
    name = "structure"

    def __init__(self) -> None:
        self.invocations = [
            Invocation(
                "structure",
                ("structure", "--n-max", str(N_STRUCTURE), "--jobs", "1", "--format", "json"),
            )
        ]
        self.ref = _read_ref("structure.json")
        self.chains, self.top_n = ["312:312"], N_STRUCTURE
        self.words = sum(math.factorial(n - 1) for n in range(1, N_STRUCTURE + 1))

    def check(self, outputs: list[Output]) -> Tally:
        tally = Tally()
        (out,) = outputs
        tally.compare_lines("structure report", out.stdout, self.ref)
        tally.compare_lines("structure stderr", out.stderr, "")
        tally.compare_code("structure", out.returncode, 0)
        return tally

    def final_counts(self, outputs: list[Output]) -> int:
        return sum(row["brute_force"] for row in json.loads(outputs[0].stdout))


def _reverse_complement(pattern: tuple[int, ...]) -> tuple[int, ...]:
    k = len(pattern)
    return tuple(k + 1 - v for v in reversed(pattern))


def _chain_text(levels) -> str:
    return ":".join("".join(map(str, p)) for p in levels)


def deep_chains(seed: int) -> list[tuple[tuple[int, ...], ...]]:
    """DEEP_DRAWS chains drawn from DEEP_POOL by the seed, each followed by
    its reverse complement, which has the same count at every n."""
    chains = []
    for text in random.Random(seed).sample(DEEP_POOL, DEEP_DRAWS):
        levels = tuple(tuple(map(int, pattern)) for pattern in text.split(":"))
        chains.append(levels)
        chains.append(tuple(_reverse_complement(p) for p in levels))
    return chains


def _load_oracle():
    tests = Path(__file__).resolve().parent.parent / "tests"
    if str(tests) not in sys.path:
        sys.path.insert(0, str(tests))
    from helpers import scan_count_chain

    return scan_count_chain


def _count_row(n: int, chain: str, total: int, refinement) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(
        [n, chain, total, "", "", "true", ",".join(map(str, refinement))]
    )
    return buffer.getvalue()


class DeepChains(Workload):
    name = "deep-chains"
    header = "n,chain,brute_force,formula,tag,agree,refinement"

    def __init__(self, seed: int) -> None:
        self.levels = deep_chains(seed)
        self.chains = [_chain_text(levels) for levels in self.levels]
        self.top_n = N_DEEP
        self.invocations = [
            Invocation(
                f"count#{i} {text}",
                ("count", "--chain", text, "--n-max", str(N_DEEP), "--jobs", "1", "--format", "csv"),
            )
            for i, text in enumerate(self.chains)
        ]
        self.words = len(self.levels) * sum(math.factorial(n) for n in range(1, N_DEEP + 1))
        scan_count_chain = _load_oracle()
        self.oracle_rows = [
            [
                _count_row(n, text, *scan_count_chain(n, tuple((p,) for p in levels)))
                for n in range(1, ORACLE_N_MAX + 1)
            ]
            for text, levels in zip(self.chains, self.levels)
        ]
        ref = REFS / f"deep-chains-seed{seed}.csv"
        self.ref = ref.read_text() if seed == DEFAULT_SEED else None

    def check(self, outputs: list[Output]) -> Tally:
        tally = Tally()
        rows_by_chain = []
        for text, expected, out in zip(self.chains, self.oracle_rows, outputs):
            what = f"count {text}"
            lines = out.stdout.splitlines()
            want = [self.header] + [row.rstrip("\n") for row in expected]
            tally.compare_lines(what + " report", "\n".join(lines[: len(want)]), "\n".join(want))
            tally.compare_lines(what + " stderr", out.stderr, "")
            tally.compare_code(what, out.returncode, 0)
            tally.attempted += 1
            if len(lines) != N_DEEP + 1:
                tally.failed += 1
                tally.note(f"{what}: {len(lines) - 1} rows, expected {N_DEEP}")
            rows_by_chain.append({int(r[0]): r for r in _csv_rows(out.stdout)[1:] if r and r[0].isdigit()})
        # Above the oracle's reach, every row must be well formed and carry
        # the same total as the row of the reverse-complement chain.
        for n in range(ORACLE_N_MAX + 1, N_DEEP + 1):
            totals = [
                rows[n][2] if _well_formed(rows.get(n), n, text) else None
                for text, rows in zip(self.chains, rows_by_chain)
            ]
            for j, text in enumerate(self.chains):
                tally.attempted += 1
                if totals[j] is None or totals[j] != totals[j ^ 1]:
                    tally.failed += 1
                    tally.note(f"count {text} n={n}: total {totals[j]}, reverse complement {totals[j ^ 1]}")
        if self.ref is not None:
            got = "".join(out.stdout for out in outputs)
            tally.compare_lines("deep-chains reference", got, self.ref)
        return tally

    def final_counts(self, outputs: list[Output]) -> int:
        return sum(int(r[2]) for out in outputs for r in _csv_rows(out.stdout)[1:])


def _well_formed(row, n: int, chain: str) -> bool:
    if row is None or len(row) != 7 or row[1] != chain or row[3:6] != ["", "", "true"]:
        return False
    parts = row[6].split(",")
    return len(parts) == n and all(p.isdigit() for p in parts) and sum(map(int, parts)) == int(row[2])


def make(name: str, seed: int) -> Workload:
    if name == "table":
        return Table()
    if name == "deep-chains":
        return DeepChains(seed)
    if name == "structure":
        return Structure()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("table", "deep-chains", "structure")
