"""Shared fixtures and the acceptance-criteria summary."""

import pytest

from chainperm import enumeration

CRITERIA = (
    ("test_criterion_1_formula_sweep_matches_enumeration",
     "criterion 1: all nine stored formulas match enumeration up to n = 8"),
    ("test_criterion_2_lucas_count_formula_holds_to_n9",
     "criterion 2: counts for 231,1432:231 equal L(n+1) - ceil(n/2) - 1 up to n = 9"),
    ("test_criterion_3_mirrored_chain_counts_agree",
     "criterion 3: reverse-complement chain pairs have equal counts up to n = 8"),
    ("test_criterion_4_strong_avoiders_ending_in_1_are_unimodal",
     "criterion 4: strong 312-avoiders ending in 1 are exactly the unimodal forms up to n = 9"),
    ("test_criterion_5_small_case_counts",
     "criterion 5: hand-checked small counts for four reference chains"),
    ("test_criterion_6_ceiling_half_sum_closed_form",
     "criterion 6: ceiling_half_sum equals direct summation for n <= 1000"),
    ("test_criterion_7_formula_recurrences",
     "criterion 7: recurrence and cross-tag identities among stored formulas"),
    ("test_criterion_8_deterministic_and_parallel_consistent",
     "criterion 8: identical results across worker counts and repeated runs"),
)

_CRITERION_BY_TEST = dict(CRITERIA)


@pytest.fixture(autouse=True)
def fresh_counts():
    """count_chain keeps its counts for the life of the process; each test
    starts without them, so that none reads another test's counts."""
    enumeration._COUNTS.clear()
    yield
    enumeration._COUNTS.clear()


@pytest.fixture
def root_walks(monkeypatch):
    """The walks of a level-1 tree that start at its root, one entry each."""
    roots = []
    grow = enumeration._grow

    def spy(nodes, *args):
        nodes = list(nodes)
        if nodes == [()]:
            roots.append(args)
        return grow(nodes, *args)

    monkeypatch.setattr(enumeration, "_grow", spy)
    return roots


@pytest.fixture
def block_counts(monkeypatch):
    """The counts over sums of blocks, one entry each."""
    runs = []
    count = enumeration._sum_of_blocks

    def spy(*args):
        runs.append(args)
        return count(*args)

    monkeypatch.setattr(enumeration, "_sum_of_blocks", spy)
    return runs


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, ()):
            name = report.nodeid.split("::")[-1].split("[")[0]
            if name in _CRITERION_BY_TEST and outcomes.get(name) not in ("failed", "error"):
                outcomes[name] = status
    if not outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name, description in CRITERIA:
        if name in outcomes:
            verdict = "PASS" if outcomes[name] == "passed" else "FAIL"
            terminalreporter.write_line(f"{verdict}  {description}")
