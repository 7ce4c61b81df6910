"""Byte-identity pins: one seeded faulted run per preemption policy.

Each case is ``repro run --jobs 20 --mtbf 3600 --policy P --journal J``
(the CLI's default seed and profile, random node faults), and the
sha256 of its write-ahead journal must equal the digest committed below.
The journal records every event the kernel pops, so any change to a
policy's decisions, to their order, or to the engine's handling of them
changes the digest.  A change that means to alter a run updates the
digest here and says why.
"""

import hashlib

import pytest

from repro.cli import main

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
