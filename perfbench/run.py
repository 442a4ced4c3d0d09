#!/usr/bin/env python3
"""chainperm benchmark: CLI runs end to end, a traced run and a layer probe.

Run from the repository root:

    python3 perfbench/run.py --workload table --seed 1 --seconds 30 --trace 0

--trace 0 sets up by timing SETUP_RUNS fresh `count --chain 312:312
--n-max 1` processes, then repeats the workload's CLI invocations, each a
fresh `python -m chainperm` process with PYTHONPATH=src, for --seconds
seconds, and reports the end-to-end metrics as medians over the passes
(for single-process invocations, per core and averaged over the cores).
--trace 1 instead runs the same commands in-process through
chainperm.cli.main, alternating untraced and traced passes for --seconds
seconds, then probes single layers, and reports the per-layer metrics.
--workload all runs every workload in turn.

Every pass is checked against references (see workloads.py).  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give each metric with its unit
and sample count, the environment, and where the full record was written
(perfbench/out/).  See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import Output, Tally

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_RUNS = 12
SETUP_ARGS = ("count", "--chain", "312:312", "--n-max", "1", "--jobs", "1", "--format", "csv")
SETUP_REPORT = "n,chain,brute_force,formula,tag,agree,refinement\n1,312:312,1,,,true,1\n"
CLI_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "words_per_s": "words/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.command.calls": "count",
    "cli.command.self_s": "s",
    "cli.render_report.calls": "count",
    "cli.render_report.s": "s",
    "cli.render_report.bytes": "bytes",
    "enumeration.count_chain.calls": "count",
    "enumeration.count_chain.pooled_calls": "count",
    "enumeration.count_chain.share": "ratio",
    "enumeration.count_chain.top_n.share": "ratio",
    "formulas.evaluate.calls": "count",
    "formulas.evaluate.share": "ratio",
    "chains.strongly_avoids.calls": "count",
    "chains.strongly_avoids.share": "ratio",
    "structure.classify.calls": "count",
    "structure.classify.share": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
    "patterns.contains.k3.ns": "ns",
    "patterns.contains.k4.ns": "ns",
    "patterns.contains.k5.ns": "ns",
    "patterns.find_occurrence.k3.ns": "ns",
    "perm.power.ns": "ns",
    "perm.construct.ns": "ns",
    "chains.chain_avoids.ns": "ns",
    "enumeration.generate_sn.ns_per_word": "ns",
    "enumeration.pool.fanout_overhead_s": "s",
    "enumeration.pool.speedup_2v1": "ratio",
    "chains.level1.survivors": "count",
    "chains.level1.survivor_frac": "ratio",
    "enumeration.useful_frac": "ratio",
}


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "commit": _commit(),
        "seed": seed,
    }


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


class Cli:
    """Runs `python -m chainperm` in a fresh process and measures it."""

    def __init__(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(self, args, core: int | None = None) -> tuple[Output, float, float]:
        """(output, wall seconds, CPU seconds of the process tree).

        With core set, the process is pinned to that core.
        """
        pin = None if core is None else (lambda: os.sched_setaffinity(0, {core}))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "chainperm", *args],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
            preexec_fn=pin,
        )
        try:
            stdout, stderr = proc.communicate(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, stderr = proc.communicate()
            stderr += f"\n[benchmark] killed after {CLI_TIMEOUT_S} s\n"
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return Output(stdout, stderr, proc.returncode), wall, cpu


# On a shared host one core can run a single process markedly slower than
# the other for tens of seconds at a time.  A single-process invocation is
# therefore pinned to each core in turn, and its time is the mean over the
# cores of its median on each core: every run weighs the cores equally,
# and a burst of load from outside spoils one sample, not the figure.
CORES = sorted(os.sched_getaffinity(0))


def _core(invocation_args, turn: int) -> int | None:
    """The core for a single-process invocation; None leaves a pool free."""
    jobs = invocation_args[invocation_args.index("--jobs") + 1]
    return CORES[turn % len(CORES)] if jobs == "1" else None


def _typical(by_core: dict) -> float:
    return statistics.fmean(statistics.median(v) for v in by_core.values())


def _keep_going(start: float, seconds: float, passes: list[float]) -> bool:
    """Start another pass only if a typical pass still ends within seconds."""
    return time.perf_counter() - start + statistics.median(passes) <= seconds


def end_to_end(name: str, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    cli = Cli()
    tally = Tally()
    setup = {}
    for i in range(SETUP_RUNS):
        core = _core(SETUP_ARGS, i)
        out, wall, _ = cli.run(SETUP_ARGS, core)
        setup.setdefault(core, []).append(wall)
        tally.compare_lines("setup report", out.stdout, SETUP_REPORT)
        tally.compare_lines("setup stderr", out.stderr, "")
        tally.compare_code("setup", out.returncode, 0)

    workload = workloads.make(name, seed)
    walls = {inv.label: {} for inv in workload.invocations}
    cpus = {inv.label: {} for inv in workload.invocations}
    passes = []
    start = time.perf_counter()
    while True:
        outputs, pass_wall = [], 0.0
        for i, inv in enumerate(workload.invocations):
            core = _core(inv.args, len(passes) + i)
            out, wall, cpu = cli.run(inv.args, core)
            outputs.append(out)
            walls[inv.label].setdefault(core, []).append(wall)
            cpus[inv.label].setdefault(core, []).append(cpu)
            pass_wall += wall
        passes.append(pass_wall)
        tally.add(workload.check(outputs))
        if not _keep_going(start, seconds, passes):
            break
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    wall_s = sum(_typical(w) for w in walls.values())
    metrics = {
        "wall_s": wall_s,
        "words_per_s": workload.words / wall_s,
        "cpu_s": sum(_typical(c) for c in cpus.values()),
        "setup_s": _typical(setup),
        "peak_rss_mb": peak_kb / 1024,
    }
    samples = {"setup_s": setup, "pass_wall_s": passes}
    samples.update({f"{label} wall_s": w for label, w in walls.items()})
    samples.update({f"{label} cpu_s": c for label, c in cpus.items()})
    info = {"passes": len(passes), "setup_runs": SETUP_RUNS, "words_per_pass": workload.words}
    per_pass = f"sum over invocations of the median of {len(passes)} passes, per core, averaged"
    basis = {"wall_s": per_pass, "words_per_s": "words per pass / wall_s", "cpu_s": per_pass,
             "setup_s": f"median of {SETUP_RUNS} fresh processes, per core, averaged",
             "peak_rss_mb": "largest process over the run"}
    if name == "table":
        info["verify_s"] = _typical(walls["verify"])
        info["symmetry_s"] = _typical(walls["symmetry"])
    return tally, metrics, {"samples": samples, "info": info, "basis": basis}


def _chainperm():
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import chainperm
    import chainperm.cli

    return chainperm, chainperm.cli


def traced(name: str, seed: int, seconds: float) -> tuple[Tally, dict, dict]:
    import probe
    import tracing

    cp, cli = _chainperm()
    workload = workloads.make(name, seed)
    tally = Tally()
    untraced_walls, traced_walls, summaries, tracers = [], [], [], []
    outputs = []
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer()
        for traced_pass in (False, True) if len(summaries) % 2 == 0 else (True, False):
            outputs, wall = [], 0.0
            for inv in workload.invocations:
                stdout, stderr, code, w = tracing.run_in_process(
                    cli, list(inv.args), tracer if traced_pass else None
                )
                outputs.append(Output(stdout, stderr, code))
                wall += w
            (traced_walls if traced_pass else untraced_walls).append(wall)
            tally.add(workload.check(outputs))
        tracers.append(tracer)
        summaries.append(tracing.summarize(tracer))
        pair_walls = [u + t for u, t in zip(untraced_walls, traced_walls)]
        if not _keep_going(start, seconds, pair_walls):
            break

    # Counts repeat exactly from pass to pass; times and shares are medians.
    metrics = {
        key: summaries[-1][key] if PER_LAYER[key] in ("count", "bytes")
        else statistics.median(s[key] for s in summaries)
        for key in summaries[0]
    }
    metrics["trace.overhead_frac"] = statistics.median(
        t / u - 1 for t, u in zip(traced_walls, untraced_walls)
    )
    metrics["trace.traced_s"] = statistics.median(traced_walls)
    metrics["trace.untraced_s"] = statistics.median(untraced_walls)

    figures, counts = probe.run(
        cp, seed, workload.chains, workload.top_n, structure=name == "structure"
    )
    metrics.update(figures)
    try:
        found = workload.final_counts(outputs)
    except (ValueError, LookupError, TypeError):
        found = 0  # a malformed report, already counted as failed
    metrics["enumeration.useful_frac"] = found / workload.words
    counts["final_avoiders"] = found
    counts["words_decided"] = workload.words

    pairs = f"median of {len(summaries)} traced/untraced pass pairs"
    basis = {key: pairs for key in summaries[0] if PER_LAYER[key] not in ("count", "bytes")}
    basis.update({key: pairs for key in ("trace.overhead_frac", "trace.traced_s", "trace.untraced_s")})
    basis.update({key: f"probe, median of {probe.REPEATS} batches" for key in figures
                  if PER_LAYER[key] in ("ns",)})
    basis["enumeration.pool.fanout_overhead_s"] = f"probe, median of {2 * probe.REPEATS} pairs"
    basis["enumeration.pool.speedup_2v1"] = f"probe, median of {probe.SPEEDUP_PAIRS} pairs"
    record = {
        "basis": basis,
        "samples": {"traced_s": traced_walls, "untraced_s": untraced_walls},
        "info": {"pairs": len(summaries), "counts": counts},
        "trace": [t.to_json() for t in tracers],
    }
    return tally, metrics, record


def _print_metrics(name: str, metrics: dict, units: dict, basis: dict) -> None:
    for key, value in metrics.items():
        shown = value if units[key] in ("count", "bytes") else f"{value:.6g}"
        print(f"{name}: {key} = {shown} {units[key]} ({basis.get(key, 'exact count')})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/chainperm/cli.py", "tests/helpers.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run from a chainperm checkout",
              file=sys.stderr)
        return 2

    env = environment(args.seed)
    print("env:", json.dumps(env))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    units = PER_LAYER if args.trace else END_TO_END
    total = Tally()
    result_metrics = {}
    OUT.mkdir(exist_ok=True)
    for name in names:
        run = traced if args.trace else end_to_end
        tally, metrics, record = run(name, args.seed, args.seconds)
        total.add(tally)
        prefix = f"{name}." if args.workload == "all" else ""
        print(f"workload {name}: {json.dumps(record['info'])}")
        _print_metrics(name, metrics, units, record["basis"])
        for key in ("verify_s", "symmetry_s"):
            if key in record["info"]:
                print(f"{name}: {key} = {record['info'][key]:.6g} s "
                      f"(median of {record['info']['passes']} passes; printed only)")
        print(f"{name}: failed_frac = {tally.failed / tally.attempted:.6g} "
              f"({tally.failed} of {tally.attempted} checked items differ)")
        for note in tally.notes:
            print(f"{name}: mismatch: {note}")
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"env": env, "workload": name, "metrics": metrics,
                                    "attempted": tally.attempted, "failed": tally.failed,
                                    "notes": tally.notes, **record}, indent=1) + "\n")
        print(f"{name}: record written to {path.relative_to(ROOT)}")
        result_metrics.update({prefix + k: {"value": v, "unit": units[k]} for k, v in metrics.items()})

    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
