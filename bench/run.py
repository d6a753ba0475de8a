"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload hallway-jam --seed 1 --seconds 30 --trace 0

The run imports `auctionmapf` from this checkout's `src/`, draws the
workload's instances from `--seed`, and generates their scenarios (set-up,
repeated and reported as a median). It then runs passes over those
scenarios, one trial after another in this single process, for about
`--seconds` seconds, after a full garbage collection.
Every trial is checked: its output digest must equal the
reference commit's and its trace must satisfy the invariants in checks.py.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics, taken
from spans wrapped around the package's functions (see layers.py) after one
untraced pass that gives the tracing overhead. The line before it records
the machine, the commit and the spread of the run's own passes and trials.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers
import spans
from workloads import WORKLOADS, generate, play, select

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_REPEATS = 5
# passes repeat until --seconds have been measured, but a pass that would
# end after OVERSHOOT x --seconds does not start: hallway-jam's 30 s pass
# runs once, cbs-solve's 20 s pass twice
OVERSHOOT = 1.5
# no trial starts after this, so even a badly regressed run ends inside 180 s
HARD_STOP_S = 140.0

E2E_UNITS = {
    "trials_per_s": "trials/s",
    "ticks_per_s": "ticks/s",
    "trial_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def percentile(values, q: float) -> float:
    """Linearly interpolated q-quantile, 0 <= q <= 1, of a nonempty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be within [0, 1]")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values) -> list[float]:
    return [percentile(values, q) for q in (0.25, 0.5, 0.75)]


def load_package():
    """Import auctionmapf afresh from this checkout's src/ and return it."""
    for name in [m for m in sys.modules if m == "auctionmapf" or m.startswith("auctionmapf.")]:
        del sys.modules[name]
    pkg = importlib.import_module("auctionmapf")
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise SystemExit(f"auctionmapf was imported from {pkg.__file__}, not from {SRC}")
    return pkg


@dataclass
class Pass:
    seconds: list[float] = field(default_factory=list)
    ticks: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    digests: list[str] = field(default_factory=list)
    cut: bool = False

    def add(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n


def evaluate(solver: str, scenario, trace, result, out: Pass) -> tuple[str | None, list[str]]:
    """Digest, invariant problems and exact counts of one finished trial."""
    if solver == "cbs":
        if trace is None:
            return None, [f"CBS timed out after {result.expansions} expansions"]
        out.ticks += trace.ticks
        out.add("cbs.ct_expansions", result.expansions)
        out.add("cbs.collisions", len(trace.collisions))
        return checks.cbs_digest(trace, result), checks.check_cbs_paths(scenario, result.paths)
    out.ticks += trace.ticks
    out.add("planner.ticks", trace.ticks)
    out.add("planner.moving_ticks", len({ln.tick for ln in trace.lines if not ln.waiting}))
    out.add("planner.guard_waits", trace.guard_waits)
    out.add("planner.deadlocked_trials", int(trace.deadlocked))
    return checks.planner_digest(trace), checks.check_planner_trace(scenario, trace)


def run_pass(pkg, workload, scenarios, reference, hard_stop: float) -> Pass:
    out = Pass()
    for key, scenario in scenarios:
        if time.perf_counter() > hard_stop:
            out.cut = True
            break
        out.attempted += 1
        try:
            seconds, trace, result = play(pkg, workload.solver, scenario)
        except Exception:  # a trial that raises is a failed trial, not a dead run
            traceback.print_exc(file=sys.stderr)
            out.failures.append(f"{key}: raised")
            continue
        out.seconds.append(seconds)
        digest, problems = evaluate(workload.solver, scenario, trace, result, out)
        # free this trace before the next trial, so peak memory does not
        # depend on which two trials ran back to back
        del trace, result
        out.digests.append(f"{key}={digest}")
        expected = reference.get(key, {}).get("digest")
        if problems:
            out.failures.append(f"{key}: {'; '.join(problems)}")
        elif digest != expected:
            out.failures.append(f"{key}: digest {digest} differs from reference {expected}")
    return out


def keep_going(passes: list[Pass], start: float, seconds: int) -> bool:
    elapsed = time.perf_counter() - start
    expected_end = elapsed + elapsed / len(passes)
    return not passes[-1].cut and elapsed < seconds and expected_end <= seconds * OVERSHOOT


def measure(pkg, workload, scenarios, reference, seconds: int, hard_stop: float) -> list[Pass]:
    passes: list[Pass] = []
    gc.collect()
    start = time.perf_counter()
    while not passes or keep_going(passes, start, seconds):
        passes.append(run_pass(pkg, workload, scenarios, reference, hard_stop))
    return passes


def measure_traced(pkg, workload, instances, scenarios, reference, seconds, hard_stop):
    """Per-layer metrics from traced passes; returns (values, passes, context)."""
    setup_rec = spans.Recorder()
    with spans.traced(pkg, setup_rec, layers.SETUP_TARGETS):
        generate(pkg, instances)
    spans.require_calls(setup_rec, ["world.make_scenario"])

    gc.collect()
    untraced = run_pass(pkg, workload, scenarios, reference, hard_stop)
    passes, self_s, counts, coverage = [], {}, [], []
    start = time.perf_counter()
    while not passes or keep_going(passes, start, seconds):
        gc.collect()
        rec = spans.Recorder()
        with spans.traced(pkg, rec, layers.TRIAL_TARGETS):
            p = run_pass(pkg, workload, scenarios, reference, hard_stop)
        passes.append(p)
        if p.cut:
            break
        spans.require_calls(rec, workload.spans)
        coverage.append(spans.check_coverage(rec, sum(p.seconds)))
        for span, s in rec.self_s.items():
            self_s[span] = self_s.get(span, 0.0) + s
        counts.append(layers.pass_counts(rec, p.counts))
    full = len(counts)
    if full == 0:
        raise SystemExit("no traced pass finished before the hard stop")
    if any(c != counts[0] for c in counts):
        raise spans.TraceGuardError("per-layer counts differ between passes over the same inputs")
    mean_self = {span: s / full for span, s in self_s.items()}
    mean_self["world.make_scenario"] = setup_rec.self_s["world.make_scenario"]
    pass_counts = dict(counts[0], **{"world.make_scenario.calls": setup_rec.calls["world.make_scenario"]})
    traced_s = statistics.mean(sum(p.seconds) for p in passes[:full])
    untraced_s = sum(untraced.seconds)
    context = {
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "trace_overhead_s": traced_s - untraced_s,
        "span_coverage": coverage,
    }
    return layers.per_layer_values(mean_self, pass_counts), [untraced] + passes, context


def git_commit() -> str | None:
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = git / ref
        if path.exists():
            return path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    hard_stop = time.perf_counter() + HARD_STOP_S
    if not (SRC / "auctionmapf" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'auctionmapf'}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: reference digests missing at {REFERENCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads(REFERENCE.read_text())
    workload = WORKLOADS[args.workload]
    instances = select(workload, args.seed, reference)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        pkg = load_package()
        scenarios = generate(pkg, instances)
        setup_times.append(time.perf_counter() - t0)

    context = {"workload": workload.name, "seed": args.seed, "env": environment()}
    if args.trace:
        values, passes, trace_context = measure_traced(
            pkg, workload, instances, scenarios, reference, args.seconds, hard_stop
        )
        context.update(trace_context)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in layers.PER_LAYER}
    else:
        passes = measure(pkg, workload, scenarios, reference, args.seconds, hard_stop)
        seconds = [s for p in passes for s in p.seconds]
        if not seconds:
            raise SystemExit("no trial finished: " + "; ".join(passes[0].failures[:3]))
        total = sum(seconds)
        values = {
            "trials_per_s": len(seconds) / total,
            "ticks_per_s": sum(p.ticks for p in passes) / total,
            "trial_p50_ms": statistics.median(seconds) * 1000.0,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}
        if len(seconds) >= 100:  # at least ten samples beyond the 90th percentile
            context["trial_p90_ms"] = percentile(seconds, 0.9) * 1000.0
        context["pass_trials_per_s_quartiles"] = quartiles(
            [len(p.seconds) / sum(p.seconds) for p in passes if p.seconds]
        )
        context["trial_ms_quartiles"] = [x * 1000.0 for x in quartiles(seconds)]

    failures = [f for p in passes for f in p.failures]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    context.update(
        passes=len(passes),
        trials_per_pass=len(scenarios),
        cut=any(p.cut for p in passes),
        setup_s_all=setup_times,
        digest=hashlib.sha256("\n".join(passes[0].digests).encode()).hexdigest(),
    )
    print(json.dumps(context))
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
