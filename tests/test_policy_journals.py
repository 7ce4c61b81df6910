"""Byte-identity pins: one seeded faulted run per preemption policy,
two streaming replays and two generated workloads.

Each run case is ``repro run --jobs 20 --mtbf 3600 --policy P --journal J``
(the CLI's default seed and profile, random node faults), and the
sha256 of its write-ahead journal must equal the digest committed below.
The replay and workload pins further down work the same way.
The journal records every event the kernel pops, so any change to a
policy's decisions, to their order, or to the engine's handling of them
changes the digest.  A change that means to alter a run updates the
digest here and says why.
"""

import hashlib

import pytest

from repro.cli import main
from tests.helpers import write_task_events

#: sha256 of each policy's journal.
JOURNAL_SHA256 = {
    "none": "f906b82a8c803fbb3eeb402b9b815c8e0a9b8b00a5b87984bc8e2fe900a94c01",
    "DSP": "59e85e722e664081724cfea38d6a384b860c2c5a2ff8bb8e49bf7d748379db37",
    "DSPW/oPP": "a6ded6bbbbdc1cf2d26b8dea4f612f046462c371d932aa85f799ffc51696c922",
    "Natjam": "ec2cae6acf599dd7c7819c07f44370b20dddadd7f6c33030688b68044d44f6c6",
    "Amoeba": "97fcca956b5c396952286519d8b441e56e020437a23d25ea38ad4140a6508085",
    "SRPT": "d356bdf76034e07182aa2e776d2b52a512354dc59b679ec9a150fe58b26f1bd3",
}


@pytest.mark.parametrize("policy", sorted(JOURNAL_SHA256))
def test_journal_digest(policy, tmp_path, capsys):
    path = tmp_path / "run.journal"
    argv = ["run", "--jobs", "20", "--mtbf", "3600", "--policy", policy,
            "--journal", str(path)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if policy != "none":
        assert int(out.split("num_preemptions")[1].split()[0]) > 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == JOURNAL_SHA256[policy]


# ------------------------------------------------------------------ replays
#: sha256 of the journal of ``repro replay --synthetic 20 --scale 20
#: --policy DSP --journal J``: the streaming frontier's admission order,
#: arrival clamps and staging decisions all land in it.
SYNTHETIC_REPLAY_SHA256 = (
    "7520e40a8156d5630ed6a5cf1d62d0f3375975c6d6fd56849c6b6f1e9e00ba8e"
)

#: sha256 of the journal of a DSP replay of :func:`write_task_events`
#: through a 30-task live window (``TraceSource``; jobs wait at the edge).
TRACE_REPLAY_SHA256 = (
    "45b4ac2b7bdddf5b55e8d7072b4861e4332342fb66c72a8701e51b78dab8b0c4"
)


def test_synthetic_replay_journal_digest(tmp_path):
    path = tmp_path / "replay.journal"
    argv = ["replay", "--synthetic", "20", "--scale", "20", "--policy", "DSP",
            "--journal", str(path)]
    assert main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SYNTHETIC_REPLAY_SHA256


def test_trace_replay_journal_digest(tmp_path):
    events = tmp_path / "task_events.csv"
    write_task_events(events)
    path = tmp_path / "replay.journal"
    argv = ["replay", "--trace", str(events), "--policy", "DSP",
            "--max-live-tasks", "30", "--journal", str(path)]
    assert main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_REPLAY_SHA256


# ---------------------------------------------------------------- workloads
#: sha256 of the JSON of every job of ``build_workload(spec, rng=seed)``
#: (``job_to_dict`` plus the cached ``topo_order`` and ``children``), for
#: a Poisson and a diurnal spec calibrated to the default replay cluster.
WORKLOAD_SHA256 = {
    "poisson": "3a8a56575ed893559ba7728aa9cfc1cc3a90fc0c9ffcd66ca3aa60d75edd2193",
    "diurnal": "7b796b3ad58e3d32637c34f91d2eaa166683363ea3b69df87af3531019de8a51",
}


@pytest.mark.parametrize("pattern", sorted(WORKLOAD_SHA256))
def test_workload_digest(pattern):
    import dataclasses
    import json

    from repro.dag.codec import job_to_dict
    from repro.experiments import cluster_profile, workload_spec_for_cluster
    from repro.trace.workload import build_workload

    spec = workload_spec_for_cluster(24, cluster_profile("cluster"), scale=20.0)
    spec = dataclasses.replace(spec, arrival_pattern=pattern)
    jobs = build_workload(spec, rng=5).jobs
    body = json.dumps(
        [
            {**job_to_dict(job), "topo_order": job.topo_order,
             "children": job.children}
            for job in jobs
        ]
    )
    assert hashlib.sha256(body.encode()).hexdigest() == WORKLOAD_SHA256[pattern]
