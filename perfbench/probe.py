"""Layer probe: times single public functions of chainperm from outside.

The random words come from the workload seed and are built into
Permutation objects before any timing starts.  Each figure is the median
of REPEATS timed batches.  The probe also makes the exact level-1
survivor counts of the workload's chains.
"""

import itertools
import math
import random
import statistics
import time

PROBE_N = 10
WORDS = 400
REPEATS = 5
POOL_CHAIN = "312,3214:312"  # the 312 side of formula row T41
FANOUT_N = 7
SPEEDUP_N = 9
SPEEDUP_PAIRS = 2
GENERATE_N = 8


def _ns_per_call(batch) -> float:
    """Median over REPEATS of the time of batch() divided by the calls it made."""
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        calls = batch()
        samples.append((time.perf_counter_ns() - start) / calls)
    return statistics.median(samples)


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _jobs_1_vs_2(cp, chain, n: int, pairs: int) -> tuple[float, float]:
    """Median seconds of count_chain(n, chain) with one job and with two,
    over pairs runs of each, alternating which goes first."""
    times = {1: [], 2: []}
    for i in range(pairs):
        for jobs in (1, 2) if i % 2 == 0 else (2, 1):
            times[jobs].append(_seconds(lambda: cp.count_chain(n, chain, jobs=jobs)))
    return statistics.median(times[1]), statistics.median(times[2])


def run(cp, seed: int, chain_texts: list[str], top_n: int, structure: bool) -> tuple[dict, dict]:
    """Probe figures and the exact counts behind them.

    cp is the imported chainperm package; chain_texts are the chains the
    workload counts (for structure, the strong 312 chain).
    """
    rng = random.Random(seed)
    perms = [cp.Permutation(tuple(rng.sample(range(1, PROBE_N + 1), PROBE_N))) for _ in range(WORDS)]
    raw = [p.values for p in perms]
    patterns = {
        3: [cp.Pattern(p) for p in itertools.permutations(range(1, 4))],
        4: [cp.Pattern(p) for p in itertools.permutations(range(1, 5))],
        5: [cp.Pattern(tuple(rng.sample(range(1, 6), 5))) for _ in range(12)],
    }
    chains = [cp.parse_chain(text) for text in chain_texts]
    figures = {}

    for k, pats in patterns.items():
        def contains_batch(pats=pats):
            sum(cp.contains(pi, tau) for pi in perms for tau in pats)
            return len(perms) * len(pats)

        figures[f"patterns.contains.k{k}.ns"] = _ns_per_call(contains_batch)

    def find_batch():
        sum(cp.find_occurrence(pi, tau) is not None for pi in perms for tau in patterns[3])
        return len(perms) * len(patterns[3])

    figures["patterns.find_occurrence.k3.ns"] = _ns_per_call(find_batch)

    def power_batch():
        for _ in range(5):
            for pi in perms:
                pi.power(2)
        return 5 * len(perms)

    figures["perm.power.ns"] = _ns_per_call(power_batch)

    def construct_batch():
        for _ in range(5):
            for word in raw:
                cp.Permutation(word)
        return 5 * len(raw)

    figures["perm.construct.ns"] = _ns_per_call(construct_batch)

    def chain_batch():
        sum(cp.chain_avoids(pi, chain) for pi in perms for chain in chains)
        return len(perms) * len(chains)

    figures["chains.chain_avoids.ns"] = _ns_per_call(chain_batch)

    def generate_batch():
        return sum(1 for _ in cp.generate_sn(GENERATE_N))

    figures["enumeration.generate_sn.ns_per_word"] = _ns_per_call(generate_batch)

    pool_chain = cp.parse_chain(POOL_CHAIN)
    one, two = _jobs_1_vs_2(cp, pool_chain, FANOUT_N, 2 * REPEATS)
    figures["enumeration.pool.fanout_overhead_s"] = two - one
    one, two = _jobs_1_vs_2(cp, pool_chain, SPEEDUP_N, SPEEDUP_PAIRS)
    figures["enumeration.pool.speedup_2v1"] = one / two

    counts = _level1_survivors(cp, chain_texts, top_n, structure)
    figures["chains.level1.survivors"] = counts["survivors"]
    figures["chains.level1.survivor_frac"] = counts["survivors"] / counts["words"]
    return figures, counts


def _level1_survivors(cp, chain_texts: list[str], top_n: int, structure: bool) -> dict:
    """Words of size top_n that pass level 1 of the workload's chains.

    For structure the words are those ending in 1, and level 1 is 312.
    """
    if structure:
        tau = cp.parse_pattern("312")
        words = math.factorial(top_n - 1)
        survivors = sum(
            cp.avoids(cp.Permutation(tail + (1,)), tau)
            for tail in itertools.permutations(range(2, top_n + 1))
        )
        return {"n": top_n, "words": words, "survivors": survivors, "level1": [["312", survivors]]}
    level1 = [text.split(":")[0] for text in chain_texts]
    per_chain = [cp.count_chain(top_n, cp.parse_chain(text)).total for text in level1]
    return {
        "n": top_n,
        "words": len(level1) * math.factorial(top_n),
        "survivors": sum(per_chain),
        "level1": [[text, count] for text, count in zip(level1, per_chain)],
    }
