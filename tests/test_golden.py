"""Golden sha256 digests of the CSV outputs of pinned configs.

Criterion 10 compares runs with each other; these digests compare them with
recorded bytes, so a change to the oracle streams, the update rules or the
calculator shows up here. A change that alters the bytes on purpose updates
the digests and says why in CHANGES.md.
"""

import hashlib
import json

import pytest

from dnsgd.cli import main as cli_main
from dnsgd.optimizers import ALGORITHMS

# The criterion-10 run config; only "algorithm" varies between digests.
RUN_CONFIG = {
    "problem": {
        "family": "exp_pair", "d": 6, "m": 4, "zeta": 0.2, "sigma": 0.4,
        "seed": 9, "rate": 1.0,
    },
    "topology": {"kind": "ring"},
    "algorithm": "dnsgd",
    "x0": 1.0,
    "master_seed": 4242,
    "hyperparams": {
        "eta": 0.03, "b": 4, "big_t": 12, "k_inner": 11, "k_init": 2,
        "epsilon": 0.2,
    },
    "num_seeds": 4,
    "snapshot_every": 0,
}

RUN_DIGESTS = {
    "dnsgd": "dbad01ba9aa8a2a18f7fd4f60205ee980bec05aeae979a29df944a1a315fa4a6",
    "dsgd": "c482b1773fd0bf566f1a1c4b223f39980a2c3416c6f237ab87b05abd9f8976c7",
    "dsgt": "0cdf14967bc5323189b1089db246149bb4d449ee4d7a7e0e6b4ca53557c998b5",
    "dnasa": "0846ea3e28e7cf050fb37846ecba3ed07675278b305137ea4bf990659d105894",
}

# A small calculator-driven sweep: per-m hyperparameters, delta_f estimated.
SWEEP_CONFIG = {
    "problem": {
        "family": "exp_pair", "d": 10, "m": 2, "zeta": 0.2, "sigma": 1.0,
        "seed": 1, "rate": 1.0,
    },
    "topology": {"kind": "ring"},
    "x0": 1.0,
    "master_seed": 77,
    "auto": {"epsilon": 0.3, "t_cap": 200},
    "m_list": [2, 4, 8],
    "target_epsilon": 0.3,
    "num_seeds": 3,
}

SWEEP_DIGEST = "5605a47f766238d9070df02cf99ae57c9224a9a44619c88ef82a1970affe16ee"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_run_metrics_digest(tmp_path, algorithm):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**RUN_CONFIG, "algorithm": algorithm}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(path), "--out-dir", str(out)]) == 0
    data = b"".join((out / f"metrics_seed{i:03d}.csv").read_bytes() for i in range(4))
    assert _sha256(data) == RUN_DIGESTS[algorithm]


def test_sweep_speedup_digest(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(SWEEP_CONFIG))
    out = tmp_path / "out"
    assert cli_main(["sweep", "--config", str(path), "--out-dir", str(out)]) == 0
    assert _sha256((out / "speedup.csv").read_bytes()) == SWEEP_DIGEST
