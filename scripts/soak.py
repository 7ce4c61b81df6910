#!/usr/bin/env python
"""Seeded randomized soak harness: run N cases of one soak mode.

Every case is fully determined by ``(mode, base_seed, case_index)``, so
any failure reproduces from the command line or from the RunKey its
JSON artifact carries.  The modes — ``plain`` (chaos x policy x
resilience under strict invariants, ddmin-minimized fault plans),
``crash-recovery``, ``elastic`` and ``replay`` (kill-and-resume with
byte-for-byte parity) and ``service`` (zero acknowledged-job loss under
a concurrent client fleet) — are described in
:mod:`repro.sweep.soakcases`, which holds the whole harness.

Usage::

    PYTHONPATH=src python scripts/soak.py --runs 50 --seed 0 --out soak_failures
    PYTHONPATH=src python scripts/soak.py --mode crash-recovery --runs 21 --seed 0
    PYTHONPATH=src python scripts/soak.py --mode elastic --runs 30 --seed 0 --jobs 2
    PYTHONPATH=src python scripts/soak.py --mode replay --runs 20 --seed 0
    PYTHONPATH=src python scripts/soak.py --mode service --runs 30 --seed 0

Exit status is non-zero iff at least one case failed.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.sweep.soakcases import MODES, run_soak  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--mode",
        choices=tuple(MODES),
        default="plain",
        help="which soak to run (default plain)",
    )
    parser.add_argument("--runs", type=int, default=50, help="number of cases")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help=(
            "worker processes via the sweep fabric executor (default 1 = "
            "serial).  Cases are fully seeded, so parallel runs produce "
            "the same outcomes and the same case-ordered output"
        ),
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("soak_failures"),
        help="directory for failure artifacts",
    )
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    return run_soak(args.mode, args.runs, args.seed, args.out, jobs=args.jobs)


if __name__ == "__main__":
    raise SystemExit(main())
