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

# The criterion-10 run config; only "algorithm" and the problem family vary
# between digests.
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

# Family parameters that replace "rate" in the criterion-10 problem.
FAMILY_PARAMS = {
    "exp_pair": {"rate": 1.0},
    "poly_even": {"power": 4, "scale": 0.5},
    "quadratic": {"curvature": 1.0},
}

RUN_DIGESTS = {
    ("exp_pair", "dnsgd"): "dbad01ba9aa8a2a18f7fd4f60205ee980bec05aeae979a29df944a1a315fa4a6",
    ("exp_pair", "dsgd"): "c482b1773fd0bf566f1a1c4b223f39980a2c3416c6f237ab87b05abd9f8976c7",
    ("exp_pair", "dsgt"): "0cdf14967bc5323189b1089db246149bb4d449ee4d7a7e0e6b4ca53557c998b5",
    ("exp_pair", "dnasa"): "0846ea3e28e7cf050fb37846ecba3ed07675278b305137ea4bf990659d105894",
    ("poly_even", "dnsgd"): "b2d4065ac295f8b1942381c229648eedb9cd1b9b297e5538e97e943a7e4eb829",
    ("poly_even", "dsgd"): "bc28be6c260ac8a4db4d28f8bdb68e29485ea03976edf97768d3aefbef4782f8",
    ("poly_even", "dsgt"): "97b812084996361efc4a164dea133eb859fa6f9373a0a368ea659fefe53e58c5",
    ("poly_even", "dnasa"): "b59116379fd6448136e2c040332dd291996f40dc982a82c34b88c7381da3e6d8",
    ("quadratic", "dnsgd"): "5e3d23b7daa2676ef5f40085c4d69cdc60f1fe52ae0dd1e7bf858dbc0b0b1d2a",
    ("quadratic", "dsgd"): "7c41d974450f46a3f8f04c4842a596153f361c0e743420c1cf4dffbb05e62ddb",
    ("quadratic", "dsgt"): "2b9ed5f77e7d9d38e7e15337bf14fbb0ddcdc546d32766ea2304f1f98b2257f4",
    ("quadratic", "dnasa"): "101febc0a8c88ec991a14aa1dcc09f41ad1aa81596b577a4e0406ac6917a4c29",
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


def _case_id(family: str, algorithm: str) -> str:
    # the criterion-10 family keeps the bare algorithm name as its id
    return algorithm if family == "exp_pair" else f"{family}-{algorithm}"


@pytest.mark.parametrize(
    "family,algorithm",
    [pytest.param(f, a, id=_case_id(f, a)) for f in FAMILY_PARAMS for a in ALGORITHMS],
)
def test_run_metrics_digest(tmp_path, family, algorithm):
    problem = {k: v for k, v in RUN_CONFIG["problem"].items() if k != "rate"}
    problem.update(family=family, **FAMILY_PARAMS[family])
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**RUN_CONFIG, "algorithm": algorithm, "problem": problem}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(path), "--out-dir", str(out)]) == 0
    data = b"".join((out / f"metrics_seed{i:03d}.csv").read_bytes() for i in range(4))
    assert _sha256(data) == RUN_DIGESTS[family, algorithm]


def test_sweep_speedup_digest(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(SWEEP_CONFIG))
    out = tmp_path / "out"
    assert cli_main(["sweep", "--config", str(path), "--out-dir", str(out)]) == 0
    assert _sha256((out / "speedup.csv").read_bytes()) == SWEEP_DIGEST
