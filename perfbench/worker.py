"""Measured child process: run one workload and write its raw result.

Usage (the parent, ``run.py``, builds the job file)::

    python3 perfbench/worker.py <job.json>

The job file names the workload, seeds, size, window, run directory and
``t0`` — ``time.monotonic()`` in the parent just before it started this
process — so set-up time counts interpreter start and imports.  With
``trace`` on, a :class:`~tracer.Tracer` is installed before anything is
built and the result carries the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time


class Context:
    """What a workload needs from the harness."""

    def __init__(self, job: dict, inputs: dict, input_s: float) -> None:
        from workloads import SIZES

        self.workload_seed = job["workload_seed"]
        self.seconds = job["seconds"]
        self.size = SIZES[job["size"]]
        self.run_dir = job["run_dir"]
        self.trace = job["trace"]
        self.setup_only = job["setup_only"]
        self.min_reps = 1 if job["trace"] else 2
        self.inputs = inputs
        self._t0 = job["t0"]
        self._input_s = input_s
        self.setup_s = None
        self.setup_slowdown = None
        self.tracer = None
        self.engine = None  # the traced run's engine, for its summary

    def setup_done(self) -> None:
        """Mark the end of set-up, then read the host's speed (untimed)."""
        from workloads import host_slowdown

        if self.setup_s is None:
            self.setup_s = time.monotonic() - self._t0 - self._input_s
            self.setup_slowdown = host_slowdown()

    def instrument(self, engine) -> None:
        if self.tracer is not None:
            self.engine = engine
            self.tracer.instrument(engine)


def pct_ms(values: list[float], q: int) -> float:
    """Percentile *q* (the median for 50) of second values, in ms; 0 for
    no values."""
    if len(values) < 2:
        return values[0] * 1e3 if values else 0.0
    if q == 50:
        return statistics.median(values) * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def per_layer(tracer, result: dict, engine) -> dict:
    """The per-layer metrics of one traced run (see BENCHMARK.json)."""
    rows = tracer.by_name()
    counts = tracer.counts
    sim = result.get("counts", {})

    def layer_self(layer):
        return 1e3 * sum(
            r["self_s"] for n, r in rows.items() if n.split(":")[0] == layer
        )

    def prefixed_self(prefix):
        return 1e3 * sum(r["self_s"] for n, r in rows.items() if n.startswith(prefix))

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    def self_ms(name):
        return 1e3 * rows.get(name, {}).get("self_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    ticks = calls("sim.preemption_exec:EPOCH_TICK")
    starts = calls("sim.dispatch:DispatchSubsystem.start_task")
    pre_calls = calls("core.preemption:DSPPreemption.select_preemptions_from_core")
    builds = calls("sim.views:ViewCache.build")
    cycles = rows.get("service.core:ServiceCore.run_cycle", {}).get("durations", [])
    offers = calls("service.admission:AdmissionController.offer")
    array = getattr(engine.runtime, "array", None)
    hit_rate = array.stats()["hit_rate"] if array is not None else 0.0
    per_cycle = tracer.samples.get("admitted_per_cycle", [])
    return {
        "trace.jobs": counts.get("trace.jobs", 0),
        "trace.self_ms": layer_self("trace"),
        "dag.self_ms": layer_self("dag"),
        "core.scheduler.calls": calls("core.scheduler:DSPScheduler.schedule"),
        "core.scheduler.tasks": counts.get("scheduler.tasks", 0),
        "core.scheduler.self_ms": layer_self("core.scheduler"),
        "core.preemption.calls": pre_calls,
        "core.preemption.decisions": counts.get("preemption.decisions", 0),
        "core.preemption.self_ms": layer_self("core.preemption"),
        "core.preemption.us_per_call": ratio(1e3 * layer_self("core.preemption"), pre_calls),
        "sim.preemption_exec.ticks": ticks,
        "sim.preemption_exec.self_ms": layer_self("sim.preemption_exec"),
        "sim.preemption_exec.preemptions": sim.get("preemptions", 0),
        "sim.dispatch.finish_ms": self_ms("sim.dispatch:TASK_FINISH"),
        "sim.dispatch.round_ms": self_ms("sim.dispatch:SCHEDULING_ROUND"),
        "sim.dispatch.starts": starts,
        "sim.dispatch.fits_calls": counts.get("NodeRuntime.fits", 0),
        "sim.dispatch.fits_per_start": ratio(counts.get("NodeRuntime.fits", 0), starts),
        "sim.arraycore.bus_ms": prefixed_self("sim.arraycore:bus."),
        "sim.arraycore.dispatch_candidates_ms": self_ms(
            "sim.arraycore:ArrayCore.dispatch_candidates"
        ),
        "sim.arraycore.scan_signals_ms": self_ms("sim.arraycore:ArrayCore.scan_signals"),
        "sim.arraycore.score_hit_rate": hit_rate,
        "sim.views.builds": builds,
        "sim.views.builds_per_tick": ratio(builds, ticks),
        "sim.views.self_ms": layer_self("sim.views"),
        "sim.metrics.bus_ms": layer_self("sim.metrics"),
        "sim.journal.bus_ms": layer_self("sim.journal"),
        "sim.journal.bytes": result.get("journal_bytes", 0),
        "sim.frontier.admit_ms": self_ms("sim.frontier:StreamingFrontier.admit"),
        "sim.frontier.admitted_jobs": counts.get("frontier.admitted_jobs", 0),
        "sim.frontier.sweep_ms": self_ms("sim.frontier:RetirementManager.sweep"),
        "sim.frontier.retired_jobs": counts.get("frontier.retired_jobs", 0),
        "sim.frontier.live_tasks_max": result.get("live_tasks_max", 0),
        "sim.fault_sub.faults": calls("sim.fault_sub:FAULT"),
        "sim.fault_sub.self_ms": layer_self("sim.fault_sub"),
        "sim.resilience.bus_ms": layer_self("sim.resilience"),
        "sim.resilience.retries": sim.get("retries", 0),
        "sim.resilience.spec_win_ratio": ratio(
            sim.get("spec_wins", 0), sim.get("spec_launches", 0)
        ),
        "sim.elastic.bus_ms": layer_self("sim.elastic"),
        "sim.elastic.joins": sim.get("joins", 0),
        "sim.elastic.drains": sim.get("drains", 0),
        "sim.kernel.pops": result.get("kernel_pops", 0),
        "sim.kernel.self_ms": layer_self("sim.kernel"),
        "service.core.cycles": len(cycles),
        "service.core.cycle_ms_p50": pct_ms(cycles, 50),
        "service.core.cycle_ms_p99": pct_ms(cycles, 99),
        "service.core.admitted_per_cycle": statistics.fmean(per_cycle) if per_cycle else 0.0,
        "service.core.self_ms": layer_self("service.core"),
        "service.frontend.park_ms_p50": pct_ms(tracer.samples.get("park_s", []), 50),
        "service.admission.offers": offers,
        "service.admission.admit_ratio": ratio(counts.get("admission.queued", 0), offers),
        "service.protocol.decode_ms": layer_self("service.protocol"),
    }


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    t = time.perf_counter()
    inputs = {}
    if job.get("inputs"):
        with open(job["inputs"], encoding="utf-8") as fh:
            inputs = json.load(fh)
    ctx = Context(job, inputs, time.perf_counter() - t)
    del inputs  # the workload may drop ctx.inputs once it has read them
    if ctx.trace:
        from tracer import Tracer

        ctx.tracer = Tracer()
        ctx.tracer.install()
    from workloads import WORKLOADS

    result = WORKLOADS[job["workload"]](ctx)
    result["setup_s"] = ctx.setup_s
    result["setup_slowdown"] = ctx.setup_slowdown
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if ctx.tracer is not None:
        ctx.tracer.uninstall()
        result["layers"] = per_layer(ctx.tracer, result, ctx.engine)
        result["layer_table"] = ctx.tracer.layer_table()
        result["spans"] = len(ctx.tracer.starts)
        ctx.tracer.dump(job["spans_out"])
    with open(job["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
