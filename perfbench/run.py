"""teleportsim benchmark.

    python3 perfbench/run.py --workload sweep-grid --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the package is imported from ``src``.
Every workload is a closed loop from this one process, without threads:
set-up (import, seeded inputs, warm-up) is repeated and timed, then whole
rounds of the workload's operations run until ``--seconds`` have passed.
Every output is checked against ``reference.py``. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics, from a traced
phase that follows an untraced one of equal length. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import reference
import tracing
from workloads import CHILD, WORKLOADS, Mismatch, child_env

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
MAX_ERRORS_SHOWN = 10


class Stats:
    """Operations of one phase. Each operation of the round keeps its fastest
    latency over the phase: on a shared host, speed drifts by tens of percent
    over seconds, and the best of many repeats is the time least disturbed."""

    def __init__(self):
        self.best: dict[int, float] = {}
        self.delivered: dict[int, int] = {}
        self.points_attempted = 0
        self.attempted = 0
        self.failed = 0

    def add(self, op, seconds: float, failed: bool) -> None:
        self.attempted += 1
        self.points_attempted += op.points
        self.failed += failed
        self.best[op.key] = min(seconds, self.best.get(op.key, seconds))
        self.delivered[op.key] = 0 if failed else op.points

    def points_per_s(self) -> float:
        """Points of one round over the round's time at each operation's best."""
        return sum(self.delivered.values()) / sum(self.best.values())

    def op_p50_ms(self) -> float:
        """Median over the round's operations of each one's best latency."""
        return statistics.median(self.best.values()) * 1e3


def attempt(wl, op, tracer=None):
    try:
        return wl.execute(op, tracer)
    except Exception as exc:  # judged by `judge`: a known fault or a wrong answer
        return exc


def judge(wl, op, out, errors: list[str]) -> bool:
    """True when op failed as a known fault; wrong answers go to ``errors``."""
    try:
        if isinstance(out, Exception):
            if op.known_fault:
                return True
            raise Mismatch(f"{op.kind} raised {out!r}")
        wl.check(op, out)
    except Exception as exc:  # a malformed output fails its check like a wrong one
        errors.append(f"{wl.name} op {op.key} ({op.kind}): {exc!r}")
    return False


def run_phase(wl, seconds: float, stats: Stats, errors: list[str], min_rounds: int, tracer=None) -> None:
    """Whole rounds of wl.ops until ``seconds`` have passed."""
    deadline = perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds or perf_counter() < deadline:
        for op in wl.ops:
            t0 = perf_counter()
            out = attempt(wl, op) if tracer is None else tracer.op(attempt, wl, op, tracer)
            stats.add(op, perf_counter() - t0, judge(wl, op, out, errors))
        rounds += 1


def import_seconds(tmp: Path) -> float:
    out = tmp / "import.json"
    subprocess.run([sys.executable, str(CHILD), "import", str(out)], cwd=ROOT, env=child_env(ROOT, tmp),
                   check=True, timeout=120)
    return json.loads(out.read_text(encoding="utf-8"))["import_s"]


def set_up(cls, seed: int, tmp: Path, errors: list[str]):
    """Import (timed in a fresh process), input generation and warm-up,
    repeated; returns the last workload and the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds(tmp)
        t0 = perf_counter()
        wl = cls(ROOT, tmp, seed)
        for op in wl.ops[:wl.warm_ops]:
            judge(wl, op, attempt(wl, op), errors)
        times.append(imported + perf_counter() - t0)
    return wl, statistics.median(times)


def peak_alloc_bytes(wl, errors: list[str]) -> int:
    """Largest Python heap growth of any one operation over one round."""
    peak = 0
    if not wl.in_process:
        for op in wl.ops:
            out, op_peak = wl.peak_alloc(op)
            judge(wl, op, out, errors)
            peak = max(peak, op_peak)
        return peak
    tracemalloc.start()
    try:
        for op in wl.ops:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = attempt(wl, op)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
            judge(wl, op, out, errors)
    finally:
        tracemalloc.stop()
    return peak


def import_times_ms(tmp: Path) -> tuple[float, float]:
    """Cumulative import time of numpy and of teleportsim.cli (which includes
    numpy), from ``python -X importtime``; medians over fresh processes."""
    numpy_ms, package_ms = [], []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import teleportsim.cli"],
                              cwd=ROOT, env=child_env(ROOT, tmp), capture_output=True, text=True,
                              check=True, timeout=120)
        cumulative = {}
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e3
        numpy_ms.append(cumulative["numpy"])
        package_ms.append(cumulative["teleportsim.cli"])
    return statistics.median(numpy_ms), statistics.median(package_ms)


def end_to_end(wl, stats: Stats, setup_s: float, errors: list[str]) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "points_per_s": (stats.points_per_s(), "points/s"),
        "op_p50_ms": (stats.op_p50_ms(), "ms"),
        "peak_alloc_mb": (peak_alloc_bytes(wl, errors) / 1e6, "MB"),
    }


def per_layer(tracer: tracing.Tracer, traced: Stats, untraced: Stats, tmp: Path) -> dict:
    layer = tracing.layer_stats(tracer)
    metrics = {}
    module_self = dict.fromkeys(tracing.MODULES, 0.0)
    for module, attr in tracing.TARGETS:
        name = f"{module}.{attr}"
        s = layer[name]
        metrics[f"{name}.self_us"] = (s["self"] / s["calls"] * 1e6 if s["calls"] else 0.0, "us")
        metrics[f"{name}.calls_per_point"] = (s["calls"] / traced.points_attempted, "calls/point")
        module_self[module] += s["self"]
    op_total = layer[tracing.OP]["total"]
    for module, seconds in module_self.items():
        metrics[f"{module}.self_share"] = (100.0 * seconds / op_total, "%")
    io = tracing.sweep_io_seconds(tracer)
    metrics["cli.io_ms"] = (statistics.fmean(io) * 1e3 if io else 0.0, "ms")
    numpy_ms, package_ms = import_times_ms(tmp)
    metrics["import.numpy_ms"] = (numpy_ms, "ms")
    metrics["import.teleportsim_ms"] = (package_ms, "ms")
    metrics["trace.overhead_pct"] = (100.0 * (untraced.points_per_s() / traced.points_per_s() - 1.0), "%")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    errors: list[str] = []
    wl, setup_s = set_up(WORKLOADS[name], seed, tmp, errors)
    if not trace:
        stats = Stats()
        run_phase(wl, seconds, stats, errors, min_rounds=2)
        metrics = end_to_end(wl, stats, setup_s, errors)
        attempted, failed = stats.attempted, stats.failed
    else:
        untraced, traced, tracer = Stats(), Stats(), tracing.Tracer()
        run_phase(wl, seconds / 2, untraced, errors, min_rounds=1)
        if wl.in_process:
            tracer.install()
        try:
            run_phase(wl, seconds / 2, traced, errors, min_rounds=1, tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.write(OUT / f"spans-{name}.json")
        metrics = per_layer(tracer, traced, untraced, tmp)
        attempted, failed = untraced.attempted + traced.attempted, untraced.failed + traced.failed
    try:
        wl.finish()
    except Mismatch as exc:
        errors.append(f"{name}: {exc}")
    for message in errors[:MAX_ERRORS_SHOWN]:
        print(f"check failed: {message}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}}


def report(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']} failed {result['failed']} "
          f"correct {str(result['correct']).lower()}")
    for key, metric in result["metrics"].items():
        print(f"  {key} {metric['value']:.6g} {metric['unit']}")


def run_all(args) -> int:
    """Each workload in its own process, as a single run would see it."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        report(name, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "teleportsim" / "__init__.py").is_file():
        print(f"error: no teleportsim package under {src}", file=sys.stderr)
        return 2
    failures = reference.self_check()
    if failures:
        print("error: reference fails the paper's limits: " + "; ".join(failures), file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(src))
    import teleportsim.cli

    if not Path(teleportsim.cli.__file__).resolve().is_relative_to(src):
        print(f"error: imported teleportsim from {teleportsim.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    tmp = OUT / f"tmp-{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report(args.workload, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
