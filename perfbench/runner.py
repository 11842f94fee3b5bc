"""One benchmark run: set up a workload, run whole cycles, report metrics.

An untraced run (`trace=False`) reports the end-to-end metrics.  A traced run
executes a fixed list of jobs from the first cycle with the span wrappers
installed, removes them, replays the same jobs untraced to measure the
tracing overhead, and reports the per-layer metrics.

Every reported time is scaled by the speed probe in `speed.py`, which runs
before every job; the raw figures are printed on the summary line.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import pathgauge.gauge

from . import ROOT, SRC, tracing
from .speed import PROBE_WINDOW, probe, scaled_seconds, speed_factor
from .workloads import WORKLOADS, Job, Workload

SETUP_REPEATS = 3
RSS_CYCLES = 3  # peak RSS is read after this many cycles, so it reflects a fixed amount of work
FAILURES_SHOWN = 5
RUN_DIR = ROOT / ".perfbench_run"
SPAN_DIR = ROOT / ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_ms.p50": "ms",
    "job_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "jobs/jobs",
}

IMPORT_PROBE = (
    "import sys\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "from perfbench.speed import scaled_seconds\n"
    "print(scaled_seconds(lambda: __import__('pathgauge.cli')))\n"
)

_FAILED = object()


@dataclass
class Outcome:
    latencies: list[float] = field(default_factory=list)  # raw seconds per job
    scaled: list[float] = field(default_factory=list)  # the same, scaled by the speed probe
    probes: list[float] = field(default_factory=list)
    passed: list[bool] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)  # why each failed job failed
    wall: float = 0.0

    def extend(self, other: Outcome) -> None:
        self.latencies += other.latencies
        self.scaled += other.scaled
        self.probes += other.probes
        self.passed += other.passed
        self.failures += other.failures
        self.wall += other.wall

    @property
    def failed(self) -> int:
        return self.passed.count(False)


def run_jobs(jobs: list[Job], tracer: tracing.Tracer | None = None) -> Outcome:
    """Run jobs back to back; an exception fails its job, never the run."""
    out = Outcome()
    outputs: dict[str, list[tuple[int, object]]] = {}
    clock = time.perf_counter
    wall0 = clock()
    for i, job in enumerate(jobs):
        out.probes.append(probe())
        if tracer is not None:
            tracer.job_id = i
            span = tracer.open("bench.job")
        t0 = clock()
        try:
            answer = job.run()
        except Exception:
            answer = _FAILED
            why = traceback.format_exc()
        out.latencies.append(clock() - t0)
        if tracer is not None:
            tracer.close(span)
        if answer is not _FAILED:
            why = _check(job, answer)
        out.passed.append(why is None)
        if why is not None:
            out.failures.append(f"{job.kind}: {why}")
        if job.twin is not None and answer is not _FAILED:
            outputs.setdefault(job.twin, []).append((i, answer))
    out.probes.append(probe())
    out.wall = clock() - wall0
    w = PROBE_WINDOW
    out.scaled = [
        lat * speed_factor(out.probes[max(0, i - w + 1): i + w + 1]) for i, lat in enumerate(out.latencies)
    ]
    for seen in outputs.values():
        if len({answer for _, answer in seen}) > 1:
            out.failures.append(f"{jobs[seen[0][0]].kind}: two invocations printed different output")
            for i, _ in seen:
                out.passed[i] = False
    return out


def _check(job: Job, answer) -> str | None:
    """None when the answer is the known one, else why not."""
    try:
        return None if job.check(answer) else "answer differs from the known one"
    except Exception:
        return traceback.format_exc()


def import_seconds() -> float:
    """Import time of the package and its CLI in a fresh interpreter, scaled
    by probes run in that interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(ROOT)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup(cls: type[Workload], seed: int, base: Path) -> tuple[Workload, list[Job], float]:
    """Import, generate and write the first cycle's inputs, several times.

    Returns the last workload, its first cycle, and the median set-up time,
    scaled like every other time.
    """
    samples = []
    for r in range(SETUP_REPEATS):
        workdir = base / f"setup-{r}"
        workdir.mkdir(parents=True)
        workload = cls(seed, workdir)
        made = {}

        def generate():
            workload.prepare()
            made["jobs"] = workload.cycle(0)

        samples.append(import_seconds() + scaled_seconds(generate))
    return workload, made["jobs"], statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload: Workload, jobs: list[Job], seconds: float) -> tuple[Outcome, int, float]:
    """Whole cycles, while the next one should end within `seconds`; at least one.

    Inputs for later cycles are generated between cycles, outside the timing.
    Returns the outcome, the cycle count and the peak RSS after RSS_CYCLES.
    """
    total = run_jobs(jobs)
    cycles = 1
    rss = peak_rss_mb()
    while total.wall * (cycles + 1) / cycles <= seconds:
        total.extend(run_jobs(workload.cycle(cycles)))
        cycles += 1
        if cycles <= RSS_CYCLES:
            rss = peak_rss_mb()
    return total, cycles, rss


def transport_cache():
    """The memoizing cache in `pathgauge.gauge`, while the library has one."""
    for value in vars(pathgauge.gauge).values():
        if callable(getattr(value, "cache_info", None)) and callable(getattr(value, "cache_clear", None)):
            return value
    return None


def trace_selection(workload: Workload, jobs: list[Job]) -> list[Job]:
    """The first cycle, or its first `trace_per_kind` jobs of each kind, in cycle order."""
    if workload.trace_per_kind is None:
        return list(jobs)
    seen: dict[str, int] = {}
    chosen = []
    for job in jobs:
        seen[job.kind] = seen.get(job.kind, 0) + 1
        if seen[job.kind] <= workload.trace_per_kind:
            chosen.append(job)
    return chosen


def trace(workload: Workload, jobs: list[Job]) -> tuple[Outcome, dict[str, float], tracing.Tracer, list[Job]]:
    jobs = trace_selection(workload, jobs)
    cache = transport_cache()
    if cache is not None:
        cache.cache_clear()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_jobs(jobs, tracer)
        info = cache.cache_info() if cache is not None else None
    finally:
        tracer.uninstall()
    left = tracing.installed_wrappers()
    if left:
        raise RuntimeError(f"wrappers left installed: {left}")
    if cache is not None:
        cache.cache_clear()
    plain = run_jobs(jobs)
    stats = {}
    if info is not None:
        lookups = info.hits + info.misses
        stats = {"hit_ratio": info.hits / lookups if lookups else 0.0, "size": info.currsize}
    metrics = tracing.layer_metrics(tracer, stats, sum(traced.scaled) / sum(plain.scaled))
    factor = speed_factor(traced.probes)
    for name in metrics:
        if tracing.unit(name) in ("s", "us"):
            metrics[name] *= factor
    traced.extend(plain)
    return traced, metrics, tracer, jobs


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    cls = WORKLOADS[name]
    base = RUN_DIR / f"{name}-{seed}-{os.getpid()}"
    try:
        workload, jobs, setup_s = setup(cls, seed, base)
        if traced:
            outcome, values, tracer, traced_jobs = trace(workload, jobs)
            tracer.write(SPAN_DIR / f"spans-{name}.bin", [j.kind for j in traced_jobs])
            units = {m: tracing.unit(m) for m in values}
            print(f"{name}: traced {len(traced_jobs)} jobs, {len(tracer)} spans")
        else:
            outcome, cycles, rss = measure(workload, jobs, seconds)
            p = statistics.quantiles(outcome.scaled, n=10, method="inclusive")
            values = {
                "setup_s": setup_s,
                "jobs_per_s": len(outcome.scaled) / sum(outcome.scaled),
                "job_ms.p50": 1e3 * p[4],
                "job_ms.p90": 1e3 * p[8],
                "peak_rss_mb": rss,
                "ok_ratio": 1 - outcome.failed / len(outcome.passed),
            }
            units = END_TO_END
            print(
                f"{name}: {cycles} cycles, {len(outcome.latencies)} jobs in {outcome.wall:.2f} s wall, "
                f"{sum(outcome.latencies):.2f} s in jobs, median probe {1e3 * statistics.median(outcome.probes):.3f} ms"
            )
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            RUN_DIR.rmdir()  # only when no other run is using it
        except OSError:
            pass
    for why in outcome.failures[:FAILURES_SHOWN]:
        print(f"FAIL {why}", file=sys.stderr)
    return {
        "correct": outcome.failed == 0,
        "attempted": len(outcome.passed),
        "failed": outcome.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
