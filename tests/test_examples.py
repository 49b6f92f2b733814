"""The fault-injecting examples print exactly what they printed when
their digests were pinned.

Each script runs in a fresh interpreter through the public API, as a
user runs it; a change that moves any simulated value, event or count
these examples report changes the sha256 of their stdout.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
EXAMPLES = SRC.parent / "examples"

#: sha256 of each example's stdout
STDOUT_DIGESTS = {
    "device_brownout.py": (
        "37acfa555b3d3584beb35087dab00cf4f577520d22ea0798d0e7d03d6aec5ce8"
    ),
    "executor_crash.py": (
        "21e01f07c2f308f09d9d630457ce3feef48fee4bafb384d828de3a8e0c868c31"
    ),
    "fault_injection.py": (
        "acef53cba91544743be6c9b5403de44b534132883f6154404e71afd7b99721d9"
    ),
}


@pytest.mark.parametrize("script", sorted(STDOUT_DIGESTS))
def test_example_stdout_matches_pinned_digest(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    run = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        cwd=tmp_path,
        env=env,
        check=True,
    )
    assert hashlib.sha256(run.stdout).hexdigest() == STDOUT_DIGESTS[script]
