"""Command-line interface: reproduce any figure or run a custom experiment.

Examples
--------
Reproduce Fig. 5(a) at the default (scaled) sizes::

    python -m repro fig5 --profile cluster

Reproduce Fig. 6 with a quicker sweep::

    python -m repro fig6 --jobs 15 30

Scalability (Fig. 8)::

    python -m repro fig8

One custom run, any scheduler × preemption policy::

    python -m repro run --scheduler DSP --policy SRPT --jobs 30

Durable run — snapshots every 500 events plus a write-ahead journal,
resumable after a crash with the same flags plus ``--resume``::

    python -m repro run --snapshot-every 500 --journal run.journal
    python -m repro run --snapshot-every 500 --journal run.journal --resume
    python -m repro journal run.journal

Parameter ablation::

    python -m repro ablate --param rho
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .experiments import (
    DEFAULT_SWEEPS,
    PREEMPTION_NAMES,
    SCHEDULER_NAMES,
    ablation_report,
    build_workload_for_cluster,
    cluster_profile,
    default_config,
    default_sim_config,
    fig5_makespan,
    fig6_fig7_preemption,
    fig8_scalability,
    figure_report,
    make_preemption_policies,
    make_schedulers,
    run_preemption,
    run_scheduling,
    sweep_parameter,
)

__all__ = ["main", "build_parser"]

_FIG6_METRICS = (
    "num_disorders",
    "throughput_tasks_per_ms",
    "avg_job_waiting",
    "num_preemptions",
)
_FIG8_METRICS = ("makespan", "throughput_tasks_per_ms")


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser (exposed for tests)."""
    p = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the DSP (CLUSTER 2018) evaluation figures.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser, default_jobs: Sequence[int]) -> None:
        sp.add_argument(
            "--jobs", type=int, nargs="+", default=list(default_jobs),
            help="job counts to sweep (x axis)",
        )
        sp.add_argument(
            "--scale", type=float, default=20.0,
            help="per-job task-count divisor vs the paper (default 20)",
        )
        sp.add_argument(
            "--node-scale", type=float, default=5.0,
            help="node-count divisor vs the paper (default 5)",
        )
        sp.add_argument("--seed", type=int, default=7, help="base RNG seed")
        sp.add_argument(
            "--out", type=str, default=None, metavar="FILE.json",
            help="also save the sweep as JSON (reload with load_figure)",
        )
        sp.add_argument(
            "--parallel", type=int, default=1, metavar="N",
            help="fan the grid out over N fabric worker processes "
            "(default 1 = serial; results are byte-identical either way)",
        )
        sp.add_argument(
            "--cache", type=str, default=None, metavar="DIR",
            help="content-addressed result store: unchanged grid points "
            "become cache hits on re-runs",
        )

    sp5 = sub.add_parser("fig5", help="Fig. 5: makespan vs #jobs, 4 schedulers")
    sp5.add_argument("--profile", choices=("cluster", "ec2"), default="cluster")
    add_common(sp5, (15, 30, 45, 60, 75))

    sp6 = sub.add_parser("fig6", help="Fig. 6: preemption metrics on the real cluster")
    add_common(sp6, (15, 30, 45, 60, 75))

    sp7 = sub.add_parser("fig7", help="Fig. 7: preemption metrics on EC2")
    add_common(sp7, (15, 30, 45, 60, 75))

    sp8 = sub.add_parser("fig8", help="Fig. 8: DSP scalability on both testbeds")
    add_common(sp8, (50, 100, 150, 200, 250))

    spr = sub.add_parser("run", help="one custom scheduler × policy run")
    spr.add_argument("--scheduler", choices=SCHEDULER_NAMES, default="DSP")
    spr.add_argument("--policy", choices=(*PREEMPTION_NAMES, "none"), default="none")
    spr.add_argument("--profile", choices=("cluster", "ec2"), default="cluster")
    spr.add_argument("--jobs", type=int, default=30)
    spr.add_argument("--scale", type=float, default=20.0)
    spr.add_argument("--node-scale", type=float, default=5.0)
    spr.add_argument("--seed", type=int, default=7)
    spr.add_argument(
        "--mtbf", type=float, default=None,
        help="inject node failures with this mean time between failures (s)",
    )
    spr.add_argument(
        "--locality", type=float, default=None, metavar="FRACTION",
        help="give this fraction of root tasks located input data (§VI)",
    )
    spr.add_argument(
        "--analyze", action="store_true",
        help="print the post-run fairness/slowdown/utilization analysis",
    )
    spr.add_argument(
        "--gantt", action="store_true",
        help="record the execution trace and print per-node Gantt lanes",
    )
    spr.add_argument(
        "--membership-plan", type=str, default=None, metavar="FILE.json",
        help="scripted elastic membership plan: a JSON list of join/drain "
        "events (see repro.sim.membership_plan_to_json)",
    )
    spr.add_argument(
        "--elastic-autoscale", action="store_true",
        help="enable the load-following autoscaler (scale up on sustained "
        "queue depth, drain a node on sustained idleness)",
    )
    spr.add_argument(
        "--elastic-min-nodes", type=int, default=1, metavar="N",
        help="autoscaler floor: never drain below N members (default 1)",
    )
    spr.add_argument(
        "--elastic-max-nodes", type=int, default=64, metavar="N",
        help="autoscaler ceiling: never grow past N members (default 64)",
    )
    spr.add_argument(
        "--snapshot-every", type=int, default=0, metavar="N",
        help="write a rotated full-state snapshot every N events",
    )
    spr.add_argument(
        "--snapshot-seconds", type=float, default=0.0, metavar="S",
        help="write a rotated full-state snapshot every S sim-seconds",
    )
    spr.add_argument(
        "--snapshot-dir", type=str, default="snapshots", metavar="DIR",
        help="directory for rotated snapshots (default ./snapshots)",
    )
    spr.add_argument(
        "--journal", type=str, default=None, metavar="FILE",
        help="write a CRC-framed write-ahead journal of every event",
    )
    spr.add_argument(
        "--resume", action="store_true",
        help=(
            "resume from the latest valid snapshot in --snapshot-dir "
            "(the flags must rebuild the crashed run's configuration; "
            "a --journal file is reopened at the snapshot's offset)"
        ),
    )

    spl = sub.add_parser(
        "replay",
        help="bounded-memory streaming replay of a large workload",
        description=(
            "Stream a workload through the engine one job at a time, "
            "retiring completed jobs' state so memory tracks the live "
            "window, not the trace size.  The workload is either a Google "
            "task_events CSV (--trace) or the synthetic generator "
            "(--synthetic N).  Preemption-free by default (--policy "
            "none); --policy runs one of the §V-B preemption methods "
            "online at scale."
        ),
    )
    src = spl.add_mutually_exclusive_group(required=True)
    src.add_argument(
        "--trace", type=str, default=None, metavar="CSV",
        help="stream jobs from a Google task_events CSV",
    )
    src.add_argument(
        "--synthetic", type=int, default=None, metavar="N",
        help="stream N jobs from the synthetic workload generator",
    )
    spl.add_argument("--scheduler", choices=SCHEDULER_NAMES, default="DSP")
    spl.add_argument(
        "--policy", choices=(*PREEMPTION_NAMES, "none"), default="none",
        help="online preemption policy (default none)",
    )
    spl.add_argument("--profile", choices=("cluster", "ec2"), default="cluster")
    spl.add_argument("--node-scale", type=float, default=5.0)
    spl.add_argument(
        "--scale", type=float, default=20.0,
        help="per-job task-count divisor for --synthetic (default 20)",
    )
    spl.add_argument("--seed", type=int, default=7)
    spl.add_argument(
        "--max-live-tasks", type=int, default=50_000, metavar="N",
        help="admission window: live-task cap (default 50000)",
    )
    spl.add_argument(
        "--admit-batch", type=int, default=32, metavar="N",
        help="max jobs admitted per frontier round, and max jobs drawn "
        "ahead of admission (default 32)",
    )
    spl.add_argument(
        "--pump-pops", type=int, default=512, metavar="N",
        help="max engine events per frontier round (default 512)",
    )
    spl.add_argument(
        "--retire-batch", type=int, default=1, metavar="N",
        help="completed jobs buffered before a retirement sweep (default 1)",
    )
    spl.add_argument(
        "--rss-ceiling-mb", type=float, default=None, metavar="MB",
        help="memory watchdog ceiling; over it admission pauses, then "
        "retirement sweeps, then (with --spill) pending jobs shed",
    )
    spl.add_argument(
        "--watchdog-interval", type=int, default=64, metavar="N",
        help="frontier rounds between RSS samples (default 64)",
    )
    spl.add_argument(
        "--resume-fraction", type=float, default=0.85, metavar="F",
        help="admission resumes below F × ceiling (default 0.85)",
    )
    spl.add_argument(
        "--spill", type=str, default=None, metavar="FILE.jsonl",
        help="JSONL side file for jobs shed under memory pressure",
    )
    spl.add_argument(
        "--journal", type=str, default=None, metavar="FILE",
        help="write a CRC-framed write-ahead journal of every event",
    )
    spl.add_argument(
        "--snapshot-every", type=int, default=0, metavar="N",
        help="write a rotated full-state snapshot every N events",
    )
    spl.add_argument(
        "--snapshot-seconds", type=float, default=0.0, metavar="S",
        help="write a rotated full-state snapshot every S sim-seconds",
    )
    spl.add_argument(
        "--snapshot-dir", type=str, default="snapshots", metavar="DIR",
        help="directory for rotated snapshots (default ./snapshots)",
    )
    spl.add_argument(
        "--resume", action="store_true",
        help="continue a killed replay from the latest valid snapshot in "
        "--snapshot-dir (same flags; the snapshot carries the source "
        "cursor and the live window)",
    )
    spl.add_argument(
        "--stats-out", type=str, default=None, metavar="FILE.json",
        help="also dump metrics + frontier/memory/skip counters as JSON",
    )

    spj = sub.add_parser(
        "journal", help="post-mortem inspection of a run journal"
    )
    spj.add_argument("file", type=str, help="journal file to summarize")
    spj.add_argument(
        "--tail", type=int, default=10,
        help="how many trailing records to print (default 10)",
    )

    sps = sub.add_parser(
        "serve",
        help="run the multi-tenant scheduler service (submit jobs over TCP)",
    )
    sps.add_argument(
        "--listen", type=str, default="tcp://127.0.0.1:7571", metavar="ADDR",
        help="address to bind: tcp://host:port or inproc://name "
        "(default tcp://127.0.0.1:7571; port 0 picks an ephemeral port)",
    )
    sps.add_argument("--scheduler", choices=SCHEDULER_NAMES, default="DSP")
    sps.add_argument("--profile", choices=("cluster", "ec2"), default="cluster")
    sps.add_argument("--node-scale", type=float, default=5.0)
    sps.add_argument(
        "--data-dir", type=str, default=None, metavar="DIR",
        help="durability root (admission journal, engine journal, "
        "snapshots); omit for an ephemeral in-memory service",
    )
    sps.add_argument(
        "--resume", action="store_true",
        help="recover from --data-dir after a crash (requires --data-dir)",
    )
    sps.add_argument(
        "--cycle-period", type=float, default=1.0, metavar="S",
        help="virtual seconds per service cycle (default 1.0)",
    )
    sps.add_argument(
        "--pump-events", type=int, default=256, metavar="N",
        help="max engine events per cycle (default 256)",
    )
    sps.add_argument(
        "--admission-per-cycle", type=int, default=64, metavar="N",
        help="max jobs admitted per cycle (default 64)",
    )
    sps.add_argument(
        "--max-pending", type=int, default=1024, metavar="N",
        help="global pending cap before load shedding (default 1024)",
    )
    sps.add_argument(
        "--request-deadline", type=float, default=30.0, metavar="S",
        help="virtual seconds a submission may wait before timing out",
    )
    sps.add_argument(
        "--snapshot-every-cycles", type=int, default=16, metavar="N",
        help="service snapshot cadence in cycles; 0 disables (default 16)",
    )
    sps.add_argument(
        "--cycle-interval", type=float, default=0.05, metavar="S",
        help="wall seconds between cycles when work is pending (default 0.05)",
    )

    spa = sub.add_parser("ablate", help="parameter-sensitivity sweep for DSP")
    spa.add_argument("--param", choices=sorted(DEFAULT_SWEEPS), required=True)
    spa.add_argument("--values", type=float, nargs="+", default=None)
    spa.add_argument("--jobs", type=int, default=30)
    spa.add_argument("--seed", type=int, default=7)

    spw = sub.add_parser(
        "sweep",
        help="run a scheduler x seed grid through the parallel sweep "
        "fabric (content-addressed caching, hit/miss accounting)",
    )
    spw.add_argument(
        "--kind",
        choices=("scheduling", "preemption", "elastic"),
        default="scheduling",
        help="which runner each grid point uses (default scheduling; "
        "elastic compares a fixed peak fleet against the autoscaler)",
    )
    spw.add_argument(
        "--methods", nargs="+", default=None, metavar="NAME",
        help="method labels (default: every method for --kind; "
        "for --kind elastic: fixed, autoscale)",
    )
    spw.add_argument(
        "--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4],
        help="workload seeds; the grid is methods x seeds (default 0..4)",
    )
    spw.add_argument(
        "--num-jobs", type=int, default=12,
        help="jobs per workload at each grid point (default 12)",
    )
    spw.add_argument(
        "--profile", choices=("cluster", "ec2", "uniform"), default="cluster",
    )
    spw.add_argument(
        "--nodes", type=int, default=4,
        help="node count for --profile uniform (default 4)",
    )
    spw.add_argument("--node-scale", type=float, default=5.0)
    spw.add_argument("--scale", type=float, default=20.0)
    spw.add_argument("--demand-fraction", type=float, default=0.8)
    spw.add_argument(
        "--jobs", dest="workers", type=int, default=1, metavar="N",
        help="fabric worker processes (default 1 = serial; parallel "
        "results are byte-identical to serial)",
    )
    spw.add_argument(
        "--store", default="sweep_store", metavar="DIR",
        help="content-addressed result store (default sweep_store)",
    )
    spw.add_argument(
        "--no-store", action="store_true", help="disable result caching"
    )
    spw.add_argument(
        "--stats-dir", default=None, metavar="DIR",
        help="per-run gzip JSONL stats directory "
        "(default <store>/stats; see 'repro dash')",
    )
    spw.add_argument(
        "--no-stats", action="store_true", help="disable per-run stats"
    )
    spw.add_argument(
        "--refresh", action="store_true",
        help="ignore cached results and recompute the whole grid",
    )
    spw.add_argument(
        "--max-entries", type=int, default=0,
        help="store eviction bound, oldest first (default 0 = unbounded)",
    )
    spw.add_argument(
        "--out", default=None, metavar="FILE.json",
        help="write the aggregated grid results (canonical JSON — "
        "byte-identical across serial and parallel execution)",
    )
    spw.add_argument(
        "--only", default=None, metavar="KEY",
        help="run one spec instead of a grid: a RunKey digest prefix "
        "resolved in --store, or a path to a JSON file bearing a "
        "run_key (e.g. a soak repro artifact)",
    )

    spd = sub.add_parser(
        "dash",
        help="render utilization/queue/preemption-churn dashboards from "
        "sweep run-stats files",
    )
    spd.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="stats files (*.stats.jsonl.gz) or directories of them",
    )
    spd.add_argument(
        "--out", default=None, metavar="FILE.html",
        help="also write a static HTML dashboard (inline SVG, no deps)",
    )
    spd.add_argument("--title", default="repro dash")

    return p


def _maybe_save(fig, args) -> None:
    """Persist a figure sweep when --out was given."""
    out = getattr(args, "out", None)
    if out:
        from .experiments import save_figure

        path = save_figure(fig, out)
        print(f"\nsaved: {path}")


class _StopLatch:
    """Graceful shutdown for ``run``/``replay``: while entered, SIGTERM
    and SIGINT are latched and stop the armed engine at its next settled
    point, where the full state is snapshot-safe.  Enter it before the
    (potentially slow) setup so an early signal is latched rather than
    killing the process mid-construction; leaving restores the previous
    handlers."""

    def __init__(self) -> None:
        self.signum: int | None = None
        self._engine = None
        self._previous: dict = {}

    def __enter__(self) -> "_StopLatch":
        import signal

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._previous[signum] = signal.signal(signum, self._caught)
            except ValueError:  # pragma: no cover - non-main thread
                pass
        return self

    def __exit__(self, *exc) -> None:
        import signal

        for signum, handler in self._previous.items():
            signal.signal(signum, handler)

    def _caught(self, signum, _frame) -> None:
        self.signum = signum
        if self._engine is not None:
            self._engine.request_stop()

    def arm(self, engine) -> None:
        """Route later signals to *engine*; stop it now if one came
        during setup."""
        self._engine = engine
        if self.signum is not None:
            engine.request_stop()

    def report(self, engine, exc, noun: str) -> int:
        """Print the interrupted *noun*'s report: the final snapshot (or
        why there is none) and the journal flush.  Returns the exit
        status, 128 + the signal number."""
        import signal

        signum = self.signum if self.signum is not None else signal.SIGTERM
        print(f"\n{signal.Signals(signum).name}: {exc}")
        if engine.snapshots is not None:
            print(f"final snapshot: {engine.snapshots.take()}")
        else:
            print(
                "state not persisted (start with --snapshot-every/"
                f"--snapshot-seconds to make interrupted {noun}s resumable)"
            )
        if engine.journal is not None:
            engine.journal.close()
            print(f"journal flushed: {engine.journal.path}")
        if engine.snapshots is not None:
            print("resume with the same flags plus --resume")
        return 128 + signum


def _snapshot_config(args):
    """The ``SnapshotConfig`` the --snapshot-* flags ask for, or None."""
    if args.snapshot_every <= 0 and args.snapshot_seconds <= 0:
        return None
    from .config import SnapshotConfig

    return SnapshotConfig(
        directory=args.snapshot_dir,
        every_events=args.snapshot_every,
        every_sim_seconds=args.snapshot_seconds,
    )


def _resume(args, noun: str, flags: str, restore):
    """The ``--resume`` path: load the newest valid snapshot under
    ``--snapshot-dir`` and rebuild from it with ``restore(data)``.

    Returns (what *restore* returns, the snapshot), or None after
    printing the error: a missing directory, no valid snapshot, or a
    snapshot that does not match this *noun*'s configuration (*flags*
    names what must agree).
    """
    import os

    from .sim import SnapshotError, latest_valid_snapshot

    if not os.path.isdir(args.snapshot_dir):
        print(
            f"error: --resume: snapshot directory "
            f"{args.snapshot_dir!r} does not exist\n"
            f"hint: pass the --snapshot-dir the interrupted {noun} used, "
            "or drop --resume to start fresh",
            file=sys.stderr,
        )
        return None
    found = latest_valid_snapshot(args.snapshot_dir)
    if found is None:
        print(
            f"error: --resume: no valid snapshot under "
            f"{args.snapshot_dir!r} (empty, torn or corrupt)\n"
            f"hint: a {noun} only writes snapshots when started with "
            "--snapshot-every/--snapshot-seconds; drop --resume to "
            "start fresh",
            file=sys.stderr,
        )
        return None
    path, data = found
    print(
        f"resuming from {path} "
        f"(event #{data['kernel']['pops']}, "
        f"t={data['kernel']['now']:g}s)"
    )
    try:
        return restore(data), data
    except SnapshotError as exc:
        print(
            f"error: --resume: snapshot {path} does not match this "
            f"{noun} configuration:\n  {exc}\n"
            f"hint: rerun with exactly the flags the interrupted {noun} "
            f"used ({flags})",
            file=sys.stderr,
        )
        return None


def _run(args) -> int:
    """The ``repro run`` command body."""
    from .experiments import analysis_report, compute_level_deadlines
    from .locality import with_random_inputs
    from .sim import SimEngine, SimulationInterrupted, random_fault_plan

    with _StopLatch() as latch:
        cluster = cluster_profile(args.profile, args.node_scale)
        cfg = default_config()
        sim = default_sim_config()
        workload = build_workload_for_cluster(
            args.jobs, cluster, scale=args.scale, seed=args.seed, config=cfg,
        )
        jobs = list(workload.jobs)
        if args.locality is not None:
            jobs = with_random_inputs(
                jobs, cluster, rng=args.seed, fraction=args.locality
            )
        faults = None
        if args.mtbf is not None:
            faults = random_fault_plan(
                cluster, horizon=sim.horizon / 100, rng=args.seed, mtbf=args.mtbf
            )
        scheduler = make_schedulers(cluster, cfg)[args.scheduler]
        policy, dependency_aware = _policy_wiring(args.policy, scheduler, cfg)
        membership = None
        elastic = None
        if args.membership_plan is not None:
            import json

            from .sim import membership_plan_from_json

            with open(args.membership_plan, encoding="utf-8") as fh:
                membership = membership_plan_from_json(json.load(fh))
        if args.elastic_autoscale or membership is not None:
            from .config import ElasticConfig

            elastic = ElasticConfig(
                autoscale=args.elastic_autoscale,
                min_nodes=args.elastic_min_nodes,
                max_nodes=args.elastic_max_nodes,
            )
        kwargs = dict(
            preemption=policy, dsp_config=cfg,
            sim_config=sim,
            membership=membership,
            elastic=elastic,
            task_deadlines=compute_level_deadlines(workload, cluster, cfg),
            dependency_aware_dispatch=dependency_aware,
            faults=faults,
            record_trace=args.gantt,
            snapshots=_snapshot_config(args),
            journal=args.journal,
        )
        if args.resume:
            restored = _resume(
                args, "run", "scheduler, policy, jobs, seeds, faults",
                lambda data: SimEngine.restore(
                    data, cluster, jobs, scheduler, **kwargs
                ),
            )
            if restored is None:
                return 1
            engine, _ = restored
        else:
            engine = SimEngine(cluster, jobs, scheduler, **kwargs)

        latch.arm(engine)
        try:
            metrics = engine.run()
        except SimulationInterrupted as exc:
            return latch.report(engine, exc, "run")
        for key, value in sorted(metrics.as_dict().items()):
            print(f"{key:28s} {value:.6g}")
        if args.analyze:
            print()
            print(analysis_report(engine))
        if args.gantt and engine.trace is not None:
            from .sim import gantt_chart

            print()
            print(gantt_chart(engine.trace, [n.node_id for n in cluster]))
        return 0


def _policy_wiring(name: str, scheduler, cfg):
    """(preemption policy, dependency-aware dispatch) for a ``--policy``
    choice: ``none`` runs no preemption and dispatches as the scheduler
    assumes; a named policy's own dependency stance governs dispatch."""
    from .sim import NullPreemption

    if name == "none":
        return NullPreemption(), getattr(scheduler, "respects_dependencies", True)
    policy = make_preemption_policies(cfg)[name]
    return policy, policy.respects_dependencies


def _replay(args) -> int:
    """The ``repro replay`` command body: a streaming frontier run with
    completed-job retirement, sharing ``_run``'s signal/resume plumbing."""
    import dataclasses
    import json
    import time

    from .config import FrontierConfig
    from .experiments import workload_spec_for_cluster
    from .sim import (
        SimEngine,
        SimulationInterrupted,
        StreamingFrontier,
        SyntheticSource,
        TraceSource,
    )

    with _StopLatch() as latch:
        cluster = cluster_profile(args.profile, args.node_scale)
        cfg = default_config()
        sim = dataclasses.replace(
            default_sim_config(),
            retire_completed=True,
            retire_batch=args.retire_batch,
        )
        scheduler = make_schedulers(cluster, cfg)[args.scheduler]
        policy, dependency_aware = _policy_wiring(args.policy, scheduler, cfg)
        # The spec calibrates demands/deadlines to the cluster for both
        # sources; for --trace only its reference fields matter.
        spec = workload_spec_for_cluster(
            args.synthetic if args.synthetic is not None else 1,
            cluster,
            scale=args.scale,
            config=cfg,
        )
        if args.trace is not None:
            source = TraceSource(
                args.trace,
                deadline_slack=spec.deadline_slack,
                reference_rate_mips=spec.reference_rate_mips,
                reference_node_cpu=spec.reference_node_cpu,
                reference_node_mem=spec.reference_node_mem,
            )
        else:
            source = SyntheticSource(spec, seed=args.seed)
        frontier_cfg = FrontierConfig(
            max_live_tasks=args.max_live_tasks,
            admit_batch=args.admit_batch,
            pump_pops=args.pump_pops,
            rss_ceiling_mb=args.rss_ceiling_mb,
            watchdog_interval=args.watchdog_interval,
            resume_fraction=args.resume_fraction,
            spill_path=args.spill,
        )
        kwargs = dict(
            preemption=policy,
            dsp_config=cfg,
            sim_config=sim,
            dependency_aware_dispatch=dependency_aware,
            streaming=True,
            snapshots=_snapshot_config(args),
            journal=args.journal,
        )
        if args.resume:
            restored = _resume(
                args, "replay", "scheduler, policy, source, seeds, window",
                # [] — the snapshot's own jobs_spec supplies the live window.
                lambda data: SimEngine.restore(
                    data, cluster, [], scheduler, **kwargs
                ),
            )
            if restored is None:
                return 1
            engine, data = restored
            frontier = StreamingFrontier(engine, source, frontier_cfg)
            frontier.restore_state(data.get("frontier"))
        else:
            engine = SimEngine(cluster, [], scheduler, **kwargs)
            frontier = StreamingFrontier(engine, source, frontier_cfg)

        latch.arm(engine)
        wall_start = time.perf_counter()
        try:
            metrics = frontier.run()
        except SimulationInterrupted as exc:
            return latch.report(engine, exc, "replay")
        wall = time.perf_counter() - wall_start

        for key, value in sorted(metrics.as_dict().items()):
            print(f"{key:28s} {value:.6g}")
        tasks_done = metrics.tasks_completed
        print(f"{'wall_seconds':28s} {wall:.6g}")
        if wall > 0:
            print(f"{'wall_tasks_per_s':28s} {tasks_done / wall:.6g}")
        # The watchdog's peak only covers its sampling points (a short
        # run may have none); floor it with an end-of-run reading.
        from .sim.frontier import read_rss_bytes

        peak_rss = read_rss_bytes()
        if frontier.watchdog is not None:
            peak_rss = max(peak_rss, frontier.watchdog.peak)
            print(f"{'peak_rss_bytes':28s} {peak_rss:.6g}")
        if args.stats_out:
            stats = {
                "metrics": metrics.as_dict(),
                "wall_seconds": wall,
                "wall_tasks_per_s": tasks_done / wall if wall > 0 else 0.0,
                "peak_rss_bytes": peak_rss,
                "frontier": {
                    "admitted_jobs": frontier.admitted,
                    "admitted_tasks": frontier.admitted_tasks,
                    "shed_jobs": frontier.shed,
                    "max_live_tasks": args.max_live_tasks,
                },
                "source": source.describe(),
            }
            if args.trace is not None:
                stats["skips"] = source.stats.as_dict()
                stats["reordered_jobs"] = source.reordered_jobs
            with open(args.stats_out, "w", encoding="utf-8") as fh:
                json.dump(stats, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"\nstats saved: {args.stats_out}")
        return 0


def _serve(args) -> int:
    """The ``repro serve`` command: run the scheduler service until
    SIGTERM/SIGINT, then drain gracefully (snapshot + journal flush)."""
    import asyncio
    import signal

    from .config import ServiceConfig
    from .service import ServiceCore, ServiceFrontend

    if args.resume and not args.data_dir:
        print("error: --resume requires --data-dir", file=sys.stderr)
        return 1

    cluster = cluster_profile(args.profile, args.node_scale)
    cfg = default_config()
    scheduler = make_schedulers(cluster, cfg)[args.scheduler]
    service_cfg = ServiceConfig(
        cycle_period=args.cycle_period,
        pump_events=args.pump_events,
        admission_per_cycle=args.admission_per_cycle,
        max_total_pending=args.max_pending,
        request_deadline=args.request_deadline,
        snapshot_every_cycles=args.snapshot_every_cycles if args.data_dir else 0,
    )
    if args.resume:
        core = ServiceCore.recover(
            cluster, scheduler, service_cfg, data_dir=args.data_dir
        )
        print(
            f"recovered from {args.data_dir} "
            f"(cycle {core.cycle}, {len(core.engine.runtime.state.jobs)} jobs)"
        )
    else:
        core = ServiceCore(
            cluster, scheduler, service_cfg, data_dir=args.data_dir
        )
    frontend = ServiceFrontend(core, cycle_interval=args.cycle_interval)

    async def _main() -> None:
        bound = await frontend.start(args.listen)
        print(f"serving on {bound}  (SIGTERM/SIGINT drains and exits)")
        stop = asyncio.Event()
        loop = asyncio.get_event_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        print("draining: rejecting pending, finishing admitted backlog ...")
        stats = await frontend.drain_and_stop()
        engine = stats.get("engine", {})
        print(
            f"drained at cycle {stats.get('cycle')}: "
            f"{engine.get('tasks_done')}/{engine.get('tasks_total')} tasks, "
            f"{engine.get('jobs')} jobs"
        )

    asyncio.run(_main())
    return 0


def _sweep_specs(args) -> list:
    """Build the methods x seeds grid of RunSpecs for ``repro sweep``."""
    from .sweep import RunSpec

    methods = args.methods
    if methods is None:
        if args.kind == "scheduling":
            methods = list(SCHEDULER_NAMES)
        elif args.kind == "preemption":
            methods = list(PREEMPTION_NAMES)
        else:
            methods = ["fixed", "autoscale"]
    specs = []
    for method in methods:
        for seed in args.seeds:
            params = {
                "profile": args.profile,
                "num_jobs": args.num_jobs,
                "method": method,
                "scale": args.scale,
                "seed": int(seed),
                "demand_fraction": args.demand_fraction,
            }
            if args.kind == "elastic":
                # The elastic runner compares fleet modes, not methods.
                params["mode"] = params.pop("method")
                params.pop("demand_fraction")
            if args.profile == "uniform":
                params["nodes"] = args.nodes
            else:
                params["node_scale"] = args.node_scale
            specs.append(
                RunSpec(
                    runner=args.kind,
                    params=params,
                    label=f"{method}/seed{seed}",
                )
            )
    return specs


def _resolve_only(key: str, store_dir: str | None):
    """Turn ``--only`` (digest prefix or artifact path) into a RunSpec."""
    import json as _json
    import os

    from .sweep import ResultStore, RunSpec

    if os.path.exists(key):
        payload = _json.loads(open(key).read())
        ref = payload.get("run_key", payload)
        if "runner" not in ref or "params" not in ref:
            raise ValueError(f"{key} carries no run_key (runner + params)")
        return RunSpec(
            runner=ref["runner"], params=dict(ref["params"]),
            label=f"only:{os.path.basename(key)}", cache=False,
        )
    if store_dir:
        entry = ResultStore(store_dir).find(key)
        if entry is not None:
            return RunSpec(
                runner=entry["runner"], params=dict(entry["params"]),
                label=f"only:{key}", cache=False,
            )
    raise ValueError(
        f"--only {key!r}: not a file, and no unique store entry matches"
    )


def _sweep_cmd(args) -> int:
    """The ``repro sweep`` command body."""
    import json as _json

    from .sweep import SweepConfig, run_grid

    store = None if args.no_store else args.store
    stats_dir = None if args.no_stats else (
        args.stats_dir or (f"{store}/stats" if store else None)
    )

    if args.only is not None:
        try:
            specs = [_resolve_only(args.only, store)]
        except (ValueError, OSError, KeyError) as exc:
            print(f"sweep: {exc}", file=sys.stderr)
            return 2
    else:
        specs = _sweep_specs(args)

    def show(record) -> None:
        if record.cached:
            verdict = "hit "
        elif record.status == "ok":
            verdict = "run "
        else:
            verdict = record.status[:4].upper()
        print(f"[{verdict}] {record.key.short} {record.spec.display()}")

    report = run_grid(
        specs,
        SweepConfig(
            jobs=args.workers,
            store=store,
            stats_dir=stats_dir,
            refresh=args.refresh,
            max_entries=args.max_entries,
        ),
        on_record=show,
    )
    for record in report.records:
        if record.status == "error":
            detail = (record.error or {}).get("message", "")
            print(
                f"sweep: {record.spec.display()} failed: {detail}",
                file=sys.stderr,
            )
    print(report.format_accounting())

    if args.out:
        # Canonical aggregate: params + results only, in spec order — no
        # paths, timestamps or completion order, so a parallel run's file
        # is byte-identical to the serial one.
        agg = {
            "schema": 1,
            "runs": [
                {
                    "label": record.spec.label,
                    "digest": record.key.digest,
                    "runner": record.spec.runner,
                    "params": record.spec.params,
                    "status": record.status,
                    "result": record.result,
                }
                for record in report.records
            ],
        }
        with open(args.out, "w") as fh:
            _json.dump(agg, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"aggregate written to {args.out}")
    elif args.only is not None and report.records[0].status == "ok":
        print(_json.dumps(report.records[0].result, indent=2, sort_keys=True))
    if stats_dir:
        print(f"run stats in {stats_dir} (render with: repro dash {stats_dir})")
    return 0 if report.ok else 1


def _dash_cmd(args) -> int:
    """The ``repro dash`` command body."""
    from .sweep.dash import load_runs, render_html, render_terminal

    try:
        runs = load_runs(args.paths)
    except OSError as exc:
        print(f"dash: {exc}", file=sys.stderr)
        return 2
    if not runs:
        print("dash: no stats files found", file=sys.stderr)
        return 2
    print(render_terminal(runs))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(render_html(runs, title=args.title))
        print(f"dashboard written to {args.out}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "fig5":
        fig = fig5_makespan(
            args.profile, args.jobs, scale=args.scale,
            node_scale=args.node_scale, seed=args.seed,
            parallel=args.parallel, store=args.cache,
        )
        print(figure_report(fig, ("makespan",)))
        _maybe_save(fig, args)
    elif args.command in ("fig6", "fig7"):
        profile = "cluster" if args.command == "fig6" else "ec2"
        fig = fig6_fig7_preemption(
            profile, args.jobs, scale=args.scale,
            node_scale=args.node_scale, seed=args.seed,
            parallel=args.parallel, store=args.cache,
        )
        print(figure_report(fig, _FIG6_METRICS))
        _maybe_save(fig, args)
    elif args.command == "fig8":
        fig = fig8_scalability(
            args.jobs, scale=max(args.scale, 40.0),
            node_scale=args.node_scale, seed=args.seed,
            parallel=args.parallel, store=args.cache,
        )
        print(figure_report(fig, _FIG8_METRICS))
        _maybe_save(fig, args)
    elif args.command == "sweep":
        return _sweep_cmd(args)
    elif args.command == "dash":
        return _dash_cmd(args)
    elif args.command == "run":
        return _run(args)
    elif args.command == "replay":
        return _replay(args)
    elif args.command == "journal":
        import os

        from .sim import JournalCorrupt, read_journal, summarize_journal

        try:
            records, valid_bytes = read_journal(args.file)
        except FileNotFoundError:
            print(f"journal not found: {args.file}", file=sys.stderr)
            return 1
        except JournalCorrupt as exc:
            print(f"corrupt journal: {exc}", file=sys.stderr)
            return 1
        print(summarize_journal(records, tail=args.tail))
        print(f"valid prefix: {valid_bytes} bytes")
        total = os.path.getsize(args.file)
        if total > valid_bytes:
            print(
                f"WARNING: torn tail — {total - valid_bytes} byte(s) "
                f"dropped at offset {valid_bytes} (crash mid-append; "
                "resume truncates and rewrites them)"
            )
    elif args.command == "serve":
        return _serve(args)
    elif args.command == "ablate":
        values = tuple(args.values) if args.values else DEFAULT_SWEEPS[args.param]
        results = sweep_parameter(args.param, values, num_jobs=args.jobs, seed=args.seed)
        print(ablation_report(args.param, results))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
