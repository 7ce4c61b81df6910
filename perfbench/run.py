#!/usr/bin/env python3
"""The repository benchmark: four workloads, measured end to end.

Run from the repository root::

    python3 perfbench/run.py --workload replay_dsp --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1    # all four workloads in turn

Workloads, metrics, bounds, seeds and the layer map are described in
``BENCHMARK.json`` and ``perfbench/layers.json``.  Each workload runs in
its own child process (``worker.py``) on one thread with a fixed
``PYTHONHASHSEED``; this parent generates the benchmark's own inputs,
measures set-up time in several further children, rebuilds each run's
jobs to compute the makespan lower bound, checks the outputs, and prints
every metric with its unit.  Time metrics are scaled to a nominal host
speed, read by running a fixed reference chunk every 50 ms across each
measured stretch (``workloads.HostMeter``); the slowdowns and raw
figures are printed on the ``host`` line.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` reruns the workload with every layer's entry points
wrapped in spans and reports the per-layer metrics; its simulated
outcome must equal the untraced run's.

Exit status: 0 when every check passed, 1 when a correctness check
failed (the result line is still printed), 2 when the benchmark cannot
run at all (no package source next to it, bad arguments).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch and result files of runs, inside the checkout (git-ignored).
STATE = ROOT / ".perfbench"

#: Set-up is measured in this many fresh processes per run (the measured
#: child is one of them) and reported as their median.
SETUP_SAMPLES = 3
HASH_SEED = "0"
#: Status reads target one of the reading tenant's most recent submits,
#: the jobs a client polling for completion would still be waiting on.
RECENT_JOBS = 8
CHILD_TIMEOUT_S = 150
ONE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

sys.path.insert(0, str(HERE))
from worker import pct_ms  # noqa: E402
from workloads import SIZES, TENANT_SHARES, service_jobs  # noqa: E402


# ------------------------------------------------------------ inputs
def service_requests(seed: int, seconds: float, size: dict) -> list[dict]:
    """The open-loop schedule: submits of the synthetic model's jobs at a
    fixed rate from tenants drawn by share, each followed by evenly spaced
    status reads of jobs that tenant already submitted."""
    rng = random.Random(seed)
    rate = size["service_rate"]
    reads = size["status_per_submit"]
    tenants = list(TENANT_SHARES)
    period = 1.0 / rate
    submitted: dict[str, list[str]] = {t: [] for t in tenants}
    requests = []
    for i, job in enumerate(service_jobs(seed, max(1, int(seconds * rate)))):
        at = i * period
        tenant = rng.choices(tenants, list(TENANT_SHARES.values()))[0]
        submitted[tenant].append(job["job_id"])
        requests.append({"at": at, "op": "submit_job", "tenant": tenant, "job": job})
        for j in range(reads):
            requests.append({
                "at": at + (j + 1) * period / (reads + 1),
                "op": "status",
                "tenant": tenant,
                "job_id": rng.choice(submitted[tenant][-RECENT_JOBS:]),
            })
    return requests


def compact(requests: list[dict]) -> list[list]:
    """The worker's form of the schedule: (at, op, tenant, JSON job text
    or job id) per request."""
    return [
        [r["at"], r["op"], r["tenant"],
         json.dumps(r["job"]) if r["op"] == "submit_job" else r["job_id"]]
        for r in requests
    ]


# ------------------------------------------------------------ children
def run_child(job: dict, run_dir: Path, tag: str) -> dict:
    """Run worker.py on *job* in its own directory under *run_dir* and
    return its result."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(SRC), **ONE_THREAD)
    child_dir = run_dir / tag
    child_dir.mkdir()
    job_path = child_dir / "job.json"
    job = dict(
        job, run_dir=str(child_dir), out=str(child_dir / "result.json"),
        spans_out=str(child_dir / "spans.tsv"), t0=time.monotonic(),
    )
    job_path.write_text(json.dumps(job))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path)],
        cwd=HERE, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{tag} child exited {proc.returncode}")
    return json.loads(Path(job["out"]).read_text())


def source_digest() -> str:
    """Digest of the package and benchmark sources: runs of one seed on
    the same digest must produce the same simulated outcome."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "repro").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(digest: str) -> dict:
    """Where these numbers were measured."""
    import numpy

    commit = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
        "source_digest": digest,
        "hash_seed": HASH_SEED,
    }


# ------------------------------------------------------------ metrics
def latency_metrics(ack: list[float], status: list[float]) -> dict:
    return {
        "ack_ms_p50": pct_ms(ack, 50),
        "ack_ms_p99": pct_ms(ack, 99),
        "status_ms_p50": pct_ms(status, 50),
        "status_ms_p99": pct_ms(status, 99),
    }


class Checks:
    """Correctness checks; every failure is reported, any fails the run."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def check_outcomes(checks: Checks, key: str, outcome: list, reps: list[dict]) -> None:
    """Every rep, and every earlier run of this seed on this source and
    toolchain (*key*), produced the same simulated outcome."""
    for i, rep in enumerate(reps):
        checks.expect(rep["outcome"] == outcome, f"rep {i} outcome {rep['outcome']} != {outcome}")
    path = STATE / "outcomes.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    if key in seen:
        checks.expect(seen[key] == outcome, f"outcome {outcome} != earlier run's {seen[key]}")
    else:
        seen[key] = outcome
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
        os.replace(tmp, path)


def evaluate(name: str, seed: int, size_name: str, res: dict, checks: Checks, env: dict) -> dict:
    """Check one untraced result and derive its end-to-end metrics."""
    from repro.experiments.bounds import makespan_lower_bound
    from repro.service.protocol import job_name

    from workloads import reference_jobs

    size = SIZES[size_name]
    jobs, cluster, cfg = reference_jobs(name, seed, size, res)
    bound = makespan_lower_bound(jobs, cluster, cfg.theta_cpu, cfg.theta_mem)
    counts = res["counts"]
    metrics = {}
    if name == "service_mixed":
        replies = res["replies"]
        bad = [r for r in replies if r is None or r[0] != "ok"]
        checks.expect(not bad, f"{len(bad)} of {len(replies)} replies missing or not ok")
        checks.expect(
            not any(r is not None and r[0] == "error" for r in replies), "an error reply"
        )
        checks.expect(not res["client_errors"], f"client errors: {res['client_errors'][:3]}")
        acked = [
            job_name(req["tenant"], req["job"]["job_id"])
            for req, r in zip(res["inputs"], replies)
            if req["op"] == "submit_job" and r is not None and r[0] == "ok"
        ]
        missing = [j for j in acked if j not in res["admitted"]]
        checks.expect(not missing, f"{len(missing)} acknowledged jobs not in the admission journal")
        checks.expect(res["all_done"], "work left unfinished after drain")
        tasks_generated = sum(len(j.tasks) for j in jobs)
        checks.expect(
            counts["tasks_completed"] == tasks_generated,
            f"{counts['tasks_completed']} of {tasks_generated} acknowledged tasks completed",
        )
        # Below the knee the service completes what is offered, so its
        # throughput is set by the open-loop rate, not by host speed.
        metrics["tasks_per_s"] = res["tasks"] / res["wall_s"]
        slowdown = res["slowdown"]
        ack = [r[1] / slowdown for req, r in zip(res["inputs"], replies)
               if r and req["op"] == "submit_job"]
        status = [r[1] / slowdown for req, r in zip(res["inputs"], replies)
                  if r and req["op"] == "status"]
        metrics.update(latency_metrics(ack, status))
        attempted, failed = len(replies), len(bad)
        raw_tasks_per_s = metrics["tasks_per_s"]
        slowdowns = [slowdown]
        lag = res["gen_lag_s"]
    else:
        tasks_generated = sum(len(j.tasks) for j in jobs)
        checks.expect(
            counts["tasks_completed"] == tasks_generated,
            f"{counts['tasks_completed']} of {tasks_generated} generated tasks completed",
        )
        if name in ("replay_dsp", "fig8_epoch"):
            checks.expect(
                counts["makespan"] >= bound * (1 - 1e-9),
                f"makespan {counts['makespan']} below lower bound {bound}",
            )
        if name == "replay_dsp":
            checks.expect(
                res["admitted_tasks"] == tasks_generated, "replay admitted a different task set"
            )
        check_outcomes(
            checks,
            f"{name}:{seed}:{size_name}:{env['source_digest']}"
            f":py{env['python']}:np{env['numpy']}",
            res["reps"][0]["outcome"], res["reps"],
        )
        # Each rep's times are scaled by the host slowdown read around it,
        # and every time metric is the median over reps of that rep's
        # figure: it discounts a rep whose slowdown read missed a stall.
        reps = res["reps"]
        metrics["tasks_per_s"] = statistics.median(
            r["tasks"] * r["slowdown"] / r["wall_s"] for r in reps
        )
        per_rep = [
            latency_metrics([t / r["slowdown"] for t in r["ack_s"]],
                            [t / r["slowdown"] for t in r["status_s"]])
            for r in reps
        ]
        metrics.update({k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]})
        fewest = min(reps, key=lambda r: len(r["ack_s"]))
        ack = [t / fewest["slowdown"] for t in fewest["ack_s"]]
        status = [t / fewest["slowdown"] for t in fewest["status_s"]]
        raw_tasks_per_s = statistics.median(r["tasks"] / r["wall_s"] for r in reps)
        slowdowns = [r["slowdown"] for r in reps]
        attempted = tasks_generated
        failed = tasks_generated - counts["tasks_completed"]
        lag = None  # the probe runs late exactly by its ack wait
    # ack/status hold the samples of one window: service_mixed's, or the
    # simulation rep with the fewest, so every p99 has enough beyond it.
    need = size["min_latency_samples"]
    checks.expect(len(ack) >= need and len(status) >= need,
                  f"only {len(ack)} ack / {len(status)} status samples (p99 needs {need})")
    metrics.update(
        makespan_ratio=counts["makespan"] / bound,
        job_wait_s=counts["avg_job_waiting"],
        peak_rss_mb=res["peak_rss_mb"],
    )
    return {
        "metrics": metrics,
        "percentiles_ms": {
            name: {q: pct_ms(values, q) for q in (50, 90, 95, 99)}
            for name, values in (("ack", ack), ("status", status))
        },
        "attempted": attempted,
        "failed": failed,
        "samples": {"ack": len(ack), "status": len(status), "reps": len(res.get("reps", [1]))},
        "gen_lag_ms_p99": metrics["ack_ms_p99"] if lag is None else pct_ms(lag, 99),
        "bound": bound,
        "host": {"slowdowns": slowdowns, "raw_tasks_per_s": raw_tasks_per_s},
    }


# ------------------------------------------------------------ main
def parse_args(argv):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all of them, in turn)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="workload size (tiny: the benchmark's own tests)")
    return parser.parse_args(argv), bench


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    args, bench = parse_args(argv)
    sys.path.insert(0, str(SRC))
    if args.workload is not None:
        return run_workload(args, bench)
    codes = [
        run_workload(argparse.Namespace(**dict(vars(args), workload=w["name"])), bench)
        for w in bench["workloads"]
    ]
    return max(codes)


def run_workload(args, bench) -> int:
    """Measure and check ``args.workload``; print its metrics and result."""
    size = SIZES[args.size]
    digest = source_digest()
    STATE.mkdir(exist_ok=True)
    run_dir = Path(STATE / f"run-{args.workload}-{args.seed}-{os.getpid()}")
    run_dir.mkdir()
    try:
        job = {
            "workload": args.workload, "workload_seed": args.seed,
            "seconds": args.seconds, "size": args.size,
            "trace": False, "setup_only": False, "inputs": None,
        }
        inputs = None
        if args.workload == "service_mixed":
            inputs = service_requests(args.seed, args.seconds, size)
            job["inputs"] = str(run_dir / "inputs.json")
            Path(job["inputs"]).write_text(json.dumps({"requests": compact(inputs)}))

        res = run_child(job, run_dir, "measure")
        res["inputs"] = inputs
        checks = Checks()
        env = environment(digest)
        summary = evaluate(args.workload, args.seed, args.size, res, checks, env)
        if args.trace:
            traced = run_child(dict(job, trace=True), run_dir, "traced")
            if args.workload != "service_mixed":
                rep = traced["reps"][0]
                checks.expect(
                    rep["outcome"] == res["reps"][0]["outcome"],
                    "traced outcome differs from the untraced run",
                )
                traced_tps = rep["tasks"] * rep["slowdown"] / rep["wall_s"]
            else:
                traced_tps = traced["tasks"] / traced["wall_s"]
            metrics = dict(traced["layers"])
            metrics["bench.gen_lag_ms_p99"] = summary["gen_lag_ms_p99"]
            metrics["bench.trace_overhead"] = summary["metrics"]["tasks_per_s"] / traced_tps
            spec = bench["per_layer"]
            shutil.copy(run_dir / "traced" / "spans.tsv", STATE / f"spans-{args.workload}.tsv")
        else:
            setups = [res]
            for i in range(SETUP_SAMPLES - 1):
                setups.append(run_child(dict(job, setup_only=True), run_dir, f"setup{i}"))
            metrics = dict(summary["metrics"], setup_s=statistics.median(
                r["setup_s"] / r["setup_slowdown"] for r in setups
            ))
            summary["host"]["setup_slowdowns"] = [r["setup_slowdown"] for r in setups]
            summary["host"]["raw_setup_s"] = statistics.median(r["setup_s"] for r in setups)
            spec = bench["end_to_end"]
        names = [m["name"] for m in spec]
        checks.expect(sorted(names) == sorted(metrics), "metric set differs from BENCHMARK.json")
        report = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "size": args.size, "environment": env,
            "samples": summary["samples"], "makespan_bound": summary["bound"],
            "host": summary["host"],
            "percentiles_ms": summary["percentiles_ms"],
            "failures": checks.failures, "metrics": metrics,
        }
        if args.trace:
            report["layer_table"] = traced["layer_table"]
            report["spans"] = traced["spans"]
        stamp = time.strftime("%Y%m%dT%H%M%S")
        (STATE / f"result-{args.workload}-{args.seed}-t{args.trace}-{stamp}.json").write_text(
            json.dumps(report, indent=1)
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"samples={summary['samples']}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("host " + json.dumps(summary["host"], sort_keys=True))
    if args.trace:
        print(f"{'layer':22s} {'spans':>9s} {'self_ms':>10s} {'self':>7s} "
              f"{'incl_ms':>10s} {'incl':>7s}")
        for layer, n, self_ms, share, incl_ms, incl in traced["layer_table"]:
            print(f"{layer:22s} {n:9d} {self_ms:10.1f} {share:7.1%} "
                  f"{incl_ms:10.1f} {incl:7.1%}")
    units = {m["name"]: m["unit"] for m in spec}
    for name in names:
        print(f"  {name:40s} {metrics.get(name, float('nan')):14.6g} {units[name]}")
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {n: {"value": metrics.get(n), "unit": units[n]} for n in names},
    }))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
