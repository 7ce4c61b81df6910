"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig5_defaults(self):
        args = build_parser().parse_args(["fig5"])
        assert args.profile == "cluster"
        assert args.jobs == [15, 30, 45, 60, 75]

    def test_fig5_custom_jobs(self):
        args = build_parser().parse_args(["fig5", "--jobs", "5", "10"])
        assert args.jobs == [5, 10]

    def test_run_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheduler", "NOPE"])

    def test_ablate_requires_param(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablate"])

    def test_all_subcommands_parse(self):
        p = build_parser()
        for argv in (["fig5"], ["fig6"], ["fig7"], ["fig8"], ["run"],
                     ["ablate", "--param", "rho"]):
            assert p.parse_args(argv) is not None


class TestMain:
    def test_run_command_prints_metrics(self, capsys):
        rc = main(["run", "--jobs", "3", "--scale", "100", "--policy", "none"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "tasks_completed" in out

    def test_run_with_policy(self, capsys):
        rc = main(["run", "--jobs", "3", "--scale", "100", "--policy", "DSP"])
        assert rc == 0
        assert "num_preemptions" in capsys.readouterr().out

    def test_fig5_tiny(self, capsys):
        rc = main(["fig5", "--jobs", "3", "--scale", "100"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Makespan" in out and "DSP" in out and "TetrisW/oDep" in out

    def test_ablate_tiny(self, capsys):
        rc = main(["ablate", "--param", "gamma", "--values", "0.5", "--jobs", "3"])
        assert rc == 0
        assert "Ablation: gamma" in capsys.readouterr().out


class TestExtendedRunFlags:
    def test_run_with_faults(self, capsys):
        rc = main(["run", "--jobs", "3", "--scale", "100", "--policy", "DSP",
                   "--mtbf", "500"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "num_node_failures" in out

    def test_run_with_locality_and_analyze(self, capsys):
        rc = main(["run", "--jobs", "3", "--scale", "100",
                   "--locality", "0.5", "--analyze"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total_transfer_time" in out
        assert "fairness" in out

    def test_locality_flag_parse(self):
        args = build_parser().parse_args(["run", "--locality", "0.3"])
        assert args.locality == 0.3
        assert args.mtbf is None


class TestFigureSaving:
    def test_fig5_out_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "fig5.json"
        rc = main(["fig5", "--jobs", "3", "--scale", "100", "--out", str(out)])
        assert rc == 0
        assert "saved:" in capsys.readouterr().out
        from repro.experiments import load_figure

        fig = load_figure(out)
        assert fig.figure == "fig5a"
        assert fig.x == (3,)


class TestGanttFlag:
    def test_run_with_gantt(self, capsys):
        rc = main(["run", "--jobs", "3", "--scale", "100", "--gantt"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "t=[" in out  # the chart's time axis header


class TestReplayPolicy:
    ARGS = ["replay", "--synthetic", "20", "--scale", "20"]

    @staticmethod
    def _metric(out: str, name: str) -> float:
        for line in out.splitlines():
            key, _, value = line.partition(" ")
            if key == name:
                return float(value)
        raise AssertionError(f"{name} not printed")

    def test_default_policy_is_none(self):
        assert build_parser().parse_args(self.ARGS).policy == "none"

    def test_dsp_policy_preempts(self, capsys):
        rc = main(self.ARGS + ["--policy", "DSP"])
        assert rc == 0
        out = capsys.readouterr().out
        assert self._metric(out, "jobs_completed") == 20
        assert self._metric(out, "num_preemptions") > 0

    def test_resume_checks_policy(self, capsys, tmp_path):
        """A snapshot taken under DSP resumes under DSP but is refused
        under DSPW/oPP (same policy class, different variant)."""
        snaps = str(tmp_path / "snaps")
        rc = main(self.ARGS + [
            "--policy", "DSP", "--snapshot-every", "400",
            "--snapshot-dir", snaps,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        expect = self._metric(out, "num_preemptions")
        rc = main(self.ARGS + [
            "--policy", "DSPW/oPP", "--resume", "--snapshot-dir", snaps,
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "does not match this replay configuration" in err
        assert "'policy'" in err
        rc = main(self.ARGS + [
            "--policy", "DSP", "--resume", "--snapshot-dir", snaps,
        ])
        assert rc == 0
        assert self._metric(capsys.readouterr().out, "num_preemptions") == expect


class TestResumeFailurePaths:
    """--resume must fail fast with an actionable message, never a
    traceback and never a silent fresh start."""

    ARGS = ["run", "--jobs", "3", "--scale", "100", "--resume"]

    def test_missing_snapshot_dir(self, capsys, tmp_path):
        rc = main(self.ARGS + ["--snapshot-dir", str(tmp_path / "nope")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "does not exist" in err and "hint:" in err

    def test_empty_snapshot_dir(self, capsys, tmp_path):
        (tmp_path / "snaps").mkdir()
        rc = main(self.ARGS + ["--snapshot-dir", str(tmp_path / "snaps")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "no valid snapshot" in err

    def test_corrupt_snapshot_is_skipped_with_clear_error(self, capsys, tmp_path):
        snaps = tmp_path / "snaps"
        snaps.mkdir()
        (snaps / "snapshot-00000050.json").write_text("{ not json")
        rc = main(self.ARGS + ["--snapshot-dir", str(snaps)])
        assert rc == 1
        assert "no valid snapshot" in capsys.readouterr().err

    def test_fingerprint_mismatch(self, capsys, tmp_path):
        snaps = tmp_path / "snaps"
        rc = main([
            "run", "--jobs", "3", "--scale", "100",
            "--snapshot-every", "20", "--snapshot-dir", str(snaps),
        ])
        assert rc == 0
        capsys.readouterr()
        rc = main([
            "run", "--jobs", "4", "--scale", "100", "--resume",
            "--snapshot-dir", str(snaps),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "does not match this run configuration" in err
        assert "hint:" in err


class TestJournalTornTail:
    def test_warning_printed_with_offset(self, capsys, tmp_path):
        journal = tmp_path / "run.journal"
        rc = main([
            "run", "--jobs", "3", "--scale", "100",
            "--journal", str(journal),
        ])
        assert rc == 0
        capsys.readouterr()
        data = journal.read_bytes()
        journal.write_bytes(data[:-5])  # crash mid-append
        rc = main(["journal", str(journal), "--tail", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "torn tail" in out
        assert "offset" in out

    def test_intact_journal_has_no_warning(self, capsys, tmp_path):
        journal = tmp_path / "run.journal"
        main(["run", "--jobs", "3", "--scale", "100", "--journal", str(journal)])
        capsys.readouterr()
        rc = main(["journal", str(journal), "--tail", "2"])
        assert rc == 0
        assert "torn tail" not in capsys.readouterr().out


class TestGracefulInterrupt:
    """SIGTERM/SIGINT stop `repro run` at a settled point, leaving a
    resumable snapshot + flushed journal (tested via the cooperative
    request_stop seam the signal handler uses)."""

    def test_request_stop_raises_interrupted(self):
        from repro.experiments import (
            build_workload_for_cluster,
            cluster_profile,
            default_config,
            make_schedulers,
        )
        from repro.sim import SimEngine, SimulationInterrupted

        cluster = cluster_profile("cluster", 5.0)
        cfg = default_config()
        workload = build_workload_for_cluster(3, cluster, scale=100, seed=7, config=cfg)
        scheduler = make_schedulers(cluster, cfg)["DSP"]
        engine = SimEngine(cluster, list(workload.jobs), scheduler, dsp_config=cfg)
        engine.request_stop()
        with pytest.raises(SimulationInterrupted):
            engine.run()
        # The engine is at a settled point: snapshot-safe.
        snap = engine.snapshot()
        assert snap["kernel"]["pops"] >= 1

    def test_sigterm_mid_run_then_resume(self, capsys, tmp_path):
        import os
        import signal
        import threading

        snaps = tmp_path / "snaps"
        journal = tmp_path / "run.journal"
        base = [
            "run", "--jobs", "40", "--scale", "8", "--snapshot-every", "200",
            "--snapshot-dir", str(snaps), "--journal", str(journal),
        ]
        timer = threading.Timer(
            0.3, lambda: os.kill(os.getpid(), signal.SIGTERM)
        )
        timer.start()
        try:
            rc = main(base)
        finally:
            timer.cancel()
        out = capsys.readouterr().out
        if rc == 0:
            pytest.skip("run finished before the signal landed")
        assert rc == 128 + signal.SIGTERM
        assert "SIGTERM" in out and "final snapshot" in out
        rc = main(base + ["--resume"])
        assert rc == 0
        assert "resuming from" in capsys.readouterr().out


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.listen.startswith("tcp://")
        assert args.scheduler == "DSP"

    def test_resume_requires_data_dir(self, capsys):
        rc = main(["serve", "--resume"])
        assert rc == 1
        assert "--resume requires --data-dir" in capsys.readouterr().err

    def test_serve_drains_on_sigterm(self, capsys, tmp_path):
        import os
        import signal
        import threading

        timer = threading.Timer(
            1.0, lambda: os.kill(os.getpid(), signal.SIGTERM)
        )
        timer.start()
        try:
            rc = main([
                "serve", "--listen", "inproc://cli-serve-test",
                "--data-dir", str(tmp_path / "svc"),
            ])
        finally:
            timer.cancel()
        assert rc == 0
        out = capsys.readouterr().out
        assert "serving on inproc://cli-serve-test" in out
        assert "drained at cycle" in out
        assert (tmp_path / "svc" / "snapshots").is_dir()
