"""In-process traced run: spans around the names chainperm.cli calls.

The tracer replaces, for the duration of one pass, the module-level names
that chainperm.cli looks up (count_chain, evaluate, render_report,
strongly_avoids, classify_strong_312_ending_in_1) with wrappers.  Calls
made a few times per command get a span each (name, start, end, parent,
attributes); calls made once per word are aggregated into a call count
and a total time, so that tracing them costs little.  Spans stay in
memory until the benchmark writes them out at the end.
"""

import contextlib
import io
import time
import traceback
from dataclasses import dataclass, field

# cli name -> layer.function name used in the metrics.
SPANNED = {
    "count_chain": "enumeration.count_chain",
    "evaluate": "formulas.evaluate",
    "render_report": "cli.render_report",
}
COUNTED = {
    "strongly_avoids": "chains.strongly_avoids",
    "classify_strong_312_ending_in_1": "structure.classify",
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start_ns: int
    end_ns: int = 0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counted: dict[str, list[int]] = {name: [0, 0] for name in COUNTED.values()}

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        span = Span(len(self.spans), name, self.stack[-1] if self.stack else None, 0, attrs=attrs)
        self.spans.append(span)
        self.stack.append(span.id)
        span.start_ns = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self.stack.pop()

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if name == "enumeration.count_chain":
                n = args[0]
                span.attrs.update(n=n, pooled=min(kwargs.get("jobs", 1), n) > 1)
            elif name == "cli.render_report":
                span.attrs["bytes"] = len(result.encode())
            return result

        return wrapper

    def counting(self, name: str, fn):
        slot = self.counted[name]
        clock = time.perf_counter_ns

        def wrapper(*args):
            start = clock()
            result = fn(*args)
            slot[1] += clock() - start
            slot[0] += 1
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self, cli):
        originals = {name: getattr(cli, name) for name in (*SPANNED, *COUNTED)}
        try:
            for name, metric in SPANNED.items():
                setattr(cli, name, self.spanned(metric, originals[name]))
            for name, metric in COUNTED.items():
                setattr(cli, name, self.counting(metric, originals[name]))
            yield
        finally:
            for name, fn in originals.items():
                setattr(cli, name, fn)

    def to_json(self) -> dict:
        return {
            "spans": [vars(s) for s in self.spans],
            "counted": {name: {"calls": c, "ns": ns} for name, (c, ns) in self.counted.items()},
        }


def run_in_process(cli, argv: list[str], tracer: Tracer | None = None):
    """Run chainperm.cli.main(argv) with captured stdout and stderr.

    Returns (stdout, stderr, returncode, wall seconds).  An exception that
    escapes main() gives what the process would: its traceback on stderr
    and exit code 1.
    """
    out, err = io.StringIO(), io.StringIO()
    command = tracer.span("cli.command", argv=" ".join(argv)) if tracer else contextlib.nullcontext()
    patch = tracer.patched(cli) if tracer else contextlib.nullcontext()
    with patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            with command:
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
        wall = time.perf_counter() - start
    return out.getvalue(), err.getvalue(), code, wall


def summarize(tracer: Tracer) -> dict:
    """Per-layer figures for one traced pass over a workload's commands.

    Span totals are given as a share of the traced command time, so that
    they are defined (as 0) on workloads that never reach a layer.
    """
    commands = [s for s in tracer.spans if s.name == "cli.command"]
    command_s = sum(s.seconds for s in commands)
    children_s = sum(
        s.seconds for s in tracer.spans
        if s.parent is not None and tracer.spans[s.parent].name == "cli.command"
    )
    counted_s = sum(ns for _, ns in tracer.counted.values()) / 1e9

    def spans(name):
        return [s for s in tracer.spans if s.name == name]

    def share(seconds):
        return seconds / command_s

    counts = spans("enumeration.count_chain")
    count_s = sum(s.seconds for s in counts)
    top_n = max((s.attrs["n"] for s in counts), default=0)
    top_s = sum(s.seconds for s in counts if s.attrs["n"] == top_n)
    renders = spans("cli.render_report")
    evaluates = spans("formulas.evaluate")
    figures = {
        "cli.command.calls": len(commands),
        "cli.command.self_s": command_s - children_s - counted_s,
        "cli.render_report.calls": len(renders),
        "cli.render_report.s": sum(s.seconds for s in renders),
        "cli.render_report.bytes": sum(s.attrs["bytes"] for s in renders),
        "enumeration.count_chain.calls": len(counts),
        "enumeration.count_chain.pooled_calls": sum(s.attrs["pooled"] for s in counts),
        "enumeration.count_chain.share": share(count_s),
        "enumeration.count_chain.top_n.share": top_s / count_s if count_s else 0.0,
        "formulas.evaluate.calls": len(evaluates),
        "formulas.evaluate.share": share(sum(s.seconds for s in evaluates)),
    }
    for name, (calls, ns) in tracer.counted.items():
        figures[f"{name}.calls"] = calls
        figures[f"{name}.share"] = share(ns / 1e9)
    return figures
