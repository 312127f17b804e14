"""The benchmark's behaviour digests, pinned.

Each perfbench workload at a given seed hashes every estimate and drawn tree
of its warm-up and first repetitions into one digest.  A change meant to
keep behaviour must leave them all as they are; a change to the sampler's
behaviour re-pins them on purpose.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SEED_ONE_DIGESTS = {
    "tree-count": "4156f32338d907b20b9686d59bacfe8c9a331991f0e171420a621e5d0985f560",
    "tree-sample": "69d7cbef0acd117857fde65a904411607749f4e84d4ef2f426790eedfd73de42",
    "ucq-count": "25e5728851d2158a2f2646e8be69c37145a34ea8f323c25a2a788b4eaf54b0b0",
}

SEED_TWO_DIGESTS = {
    "tree-count": "6eec92c34004206dc6b2a1a61c7a8516e0d843a07d7f60923eac83cf4d7a89e2",
    "tree-sample": "fe49fe8177838cfcf68e909e17dd565b04a70c7e7332a744fbdc4cc6de007792",
    "ucq-count": "b734a38df55a713f5d07442ac94c70060b538e9b09fa4921f70608d5ede46cb6",
}


def _digest(workload: str, seed: int) -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert json.loads(lines[-1])["correct"]
    (digest,) = [line.split()[1] for line in lines if line.startswith("digest ")]
    return digest


@pytest.mark.parametrize("workload", sorted(SEED_ONE_DIGESTS))
def test_benchmark_digest_at_seed_one_is_pinned(workload):
    assert _digest(workload, 1) == SEED_ONE_DIGESTS[workload]


@pytest.mark.parametrize("workload", sorted(SEED_TWO_DIGESTS))
def test_benchmark_digest_at_seed_two_is_pinned(workload):
    assert _digest(workload, 2) == SEED_TWO_DIGESTS[workload]
