"""Golden sha256 digests of the outputs of pinned configs.

Criterion 10 compares runs with each other; these digests compare them with
recorded bytes, so a change to the oracle streams, the update rules, the
calculator, the checks or the output writers shows up here. A change that
alters the bytes on purpose updates the digests and says why in CHANGES.md.
"""

import dataclasses
import hashlib
import json

import pytest

from dnsgd.cli import main as cli_main
from dnsgd.config import build_problem, parse_problem
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
}

# Family parameters that replace "rate" in the criterion-10 problem.
FAMILY_PARAMS = {
    "exp_pair": {"rate": 1.0},
    "poly_even": {"power": 4, "scale": 0.5},
    "quadratic": {"curvature": 1.0},
}

RUN_DIGESTS = {
    ("exp_pair", "dnsgd"): "6b80022f4090161fffb7252d7e1bcbe97802d4a6243236b94c8e29a41e4e288a",
    ("exp_pair", "dsgd"): "cab24adf2a8f1fb4dc0a45d09b078e0c952b0ac431af199ab5785f4c1477cc5e",
    ("exp_pair", "dsgt"): "6d586aadaa904c3d0d8a9e70d663e41cc0c5bde326eed6c1c00abbd281cd9440",
    ("exp_pair", "dnasa"): "08315bd51a4eaf83005d59b53c962d4b3abcbfec7e6394302e8b5d1a191c1fb7",
    ("poly_even", "dnsgd"): "c5d3ff3f97defbe9b119b4e5f34deca47f673ffc431eed784bfb1872e06e5e9a",
    ("poly_even", "dsgd"): "271bc9aa77dfda9b107d93b7381c97774c78379768c6a9030d83e38bafbe0c72",
    ("poly_even", "dsgt"): "0803a526a85be1e27596b8f64a88f6b7bdb2d9f4f940b84e59cefec2aaa78666",
    ("poly_even", "dnasa"): "d5901111371f56a04b5e547423fc67967d8c5471483efdaabbbe623c87c567bb",
    ("quadratic", "dnsgd"): "ff5eccff73359aaef16056173f541fbd81e7975535f7c933bb10ce0bc8ac80aa",
    ("quadratic", "dsgd"): "0b7c23a8fd9261c949990045f69e4bb56ca2bd4cc03b3c5c9b416be2150ee072",
    ("quadratic", "dsgt"): "2ffc40e052f9d4adbe87c14449da56f00230a650602228c57104d9c4b65410c5",
    ("quadratic", "dnasa"): "2e9c28f932957fe7b2fde1a18211ed92d1d249116f8ff585fa5c0cdd8dbd2432",
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

# float.hex() of the certified (l0, l1, f_star) of the problems that the
# pinned configs build. The digests fix l0 only through phi.
RUN_CONSTANTS = {
    "exp_pair": ("0x1.0287ec6d1a77bp-1", "0x1.71547652b82fep+0", "0x1.0000000000000p+0"),
    "poly_even": ("0x1.0cccccccccc46p+1", "0x1.8000000000000p+1", "0x0.0p+0"),
    "quadratic": ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"),
}

SWEEP_CONSTANTS = {
    m: ("0x1.ac6c3755b6cf6p-2", "0x1.71547652b82fep+0", "0x1.0000000000000p+0")
    for m in (2, 4, 8)
}


# Guard-mode calculator runs whose outputs together emit all four built-in
# checks; every file they write is pinned. The first also has a list x0.
OUTPUT_CONFIGS = {
    "stochastic": {
        "problem": {
            "family": "exp_pair", "d": 4, "m": 4, "zeta": 0.2, "sigma": 0.5,
            "seed": 5, "rate": 1.0,
        },
        "topology": {"kind": "ring"},
        "algorithm": "dnsgd",
        "x0": [1.2, 1.0, 0.8, 1.1],
        "master_seed": 31,
        "auto": {"epsilon": 0.3, "t_cap": 20, "k_mode": "guard"},
        "num_seeds": 10,
    },
    "deterministic": {
        "problem": {
            "family": "quadratic", "d": 5, "m": 5, "zeta": 0.5, "sigma": 0.0,
            "seed": 3, "curvature": 1.0,
        },
        "topology": {"kind": "path"},
        "algorithm": "dnsgd",
        "x0": 0.6,
        "master_seed": 7,
        "auto": {"epsilon": 0.12, "t_cap": 30, "k_mode": "guard"},
        "num_seeds": 1,
    },
}

OUTPUT_CHECKS = {
    "stochastic": ["tracker_identity", "consensus_bound", "descent_stochastic"],
    "deterministic": ["tracker_identity", "consensus_bound", "descent_deterministic"],
}

# The config_echo.json pins here and in SWEEP_OUTPUT_DIGESTS were rebaselined
# once when state snapshots were removed: snapshot_every left the echoed
# config, and a sweep's echo nests its run config under "run". They were
# rebaselined once more when the calculator's delta_f, c_k, c_k_hat and
# rho_max left the auto block and the echoed config. Every other pinned file
# held both times.
OUTPUT_DIGESTS = {
    "stochastic": {
        "checks.csv": "a4fce51f60b4e682797ba3dc8c552d94411657e68b2d5cea7ccaa6b6368e28b5",
        "config_echo.json": "3e8d3376828ef5c6b61eb19b85a36d85bd1cbfcbed9aa5b1cf0848690aab042d",
        "metrics_seed000.csv": "e0bba0c46ff98e2a1cedc16b44fb0858fb95b0f5fac8f7e3e5abad1fce8d80ea",
        "metrics_seed001.csv": "1843d17ee1c0651d565afdc17da37a93b64603e1751b693f5d4f5a14787511de",
        "metrics_seed002.csv": "01e684f8209e6d410106dcb9e8c11ab35a8c1a83ce92ad27a54b3da2338bfb26",
        "metrics_seed003.csv": "847836bb2861cb5620297a2c4396f70a9c1754f47a8e188eafe0443ea722204d",
        "metrics_seed004.csv": "49107ddb69ecf750c68f94f926a860f60a312dcd1d54fa4bf4c901d72ec326ef",
        "metrics_seed005.csv": "97136aea51a7d0d4c64863e11add0068b07a67f2718a8ff23eb0c7633f7a59c3",
        "metrics_seed006.csv": "6c6c163afa3e62f627686f77da32452858fdf8cea58343ea660d047531432626",
        "metrics_seed007.csv": "138cd61f4d0a20e9afbc2aed3fcac7943cb08b3ae2bb034a9f75f0d05851070e",
        "metrics_seed008.csv": "87645b047236d35181d4c0f923191857f5a599f305271ba68c62974e2ff1ef49",
        "metrics_seed009.csv": "54daf095c45253e856c9b96caf13d7566fa5630603ace23fe18d6b26d055ce70",
        "params_report.txt": "95294000a5f6ce6f416dce9b9e6d349cea0fa1a6a26829968504937e847a7c2f",
        "summary.txt": "0a7a9b3dd7fc2feb4e1a9bd22e6e73a05e6ba12d0269d71a9a6d870d07b0920c",
    },
    "deterministic": {
        "checks.csv": "12d6a3d8b7036d902244ff50d55fbcd3acdb8d6aa06849ae114e7c20caf4984f",
        "config_echo.json": "142ae0be948b4f8b4c4138f336acaa1053f604fe6cbe134d11a8a503f51d069b",
        "metrics_seed000.csv": "1d193c6d81daaef1692d91f7316244dcbf9c3fe2cb5c6de4004c98e36f6bc764",
        "params_report.txt": "311ca991d3f4e9723f12aa3564c76874f1381437e1d54e0b38a3cfe5de99144f",
        "summary.txt": "d76ba4bb35db8a31d88f898920e3c3a758a4fa4bb99a790c1da83264a9e6952a",
    },
}

# The other files of the pinned sweep; speedup.csv is SWEEP_DIGEST.
SWEEP_OUTPUT_DIGESTS = {
    "config_echo.json": "be0d9a14f1313665538b15ebb632338954707fce8239d34beac88ea08ca7e6b5",
    "summary.txt": "049fd0c1d6b6befba787eada8b92a3a08fb4807c82821e9a73c767e1f7d7af08",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _constants(p) -> tuple[str, str, str]:
    return p.l0.hex(), p.l1.hex(), p.f_star.hex()


def _run_problem(family: str) -> dict:
    problem = {k: v for k, v in RUN_CONFIG["problem"].items() if k != "rate"}
    problem.update(family=family, **FAMILY_PARAMS[family])
    return problem


def _case_id(family: str, algorithm: str) -> str:
    # the criterion-10 family keeps the bare algorithm name as its id
    return algorithm if family == "exp_pair" else f"{family}-{algorithm}"


@pytest.mark.parametrize(
    "family,algorithm",
    [pytest.param(f, a, id=_case_id(f, a)) for f in FAMILY_PARAMS for a in ALGORITHMS],
)
def test_run_metrics_digest(tmp_path, family, algorithm):
    path = tmp_path / "run.json"
    run = {**RUN_CONFIG, "algorithm": algorithm, "problem": _run_problem(family)}
    path.write_text(json.dumps(run))
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


def _file_digests(out) -> dict[str, str]:
    return {path.name: _sha256(path.read_bytes()) for path in sorted(out.iterdir())}


@pytest.mark.parametrize("case", OUTPUT_CONFIGS)
def test_run_output_digests(tmp_path, case):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(OUTPUT_CONFIGS[case]))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(path), "--out-dir", str(out)]) == 0
    checks = (out / "checks.csv").read_text().splitlines()[1:]
    assert [line.split(",")[0] for line in checks] == OUTPUT_CHECKS[case]
    assert all(line.split(",")[1] == "True" for line in checks)
    assert cli_main(["params", "--config", str(path), "--out-dir", str(out)]) == 0
    assert _file_digests(out) == OUTPUT_DIGESTS[case]


def test_sweep_output_digests(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(SWEEP_CONFIG))
    out = tmp_path / "out"
    assert cli_main(["sweep", "--config", str(path), "--out-dir", str(out)]) == 0
    assert _file_digests(out) == {"speedup.csv": SWEEP_DIGEST, **SWEEP_OUTPUT_DIGESTS}


@pytest.mark.parametrize("family", FAMILY_PARAMS)
def test_run_problem_constants(family):
    p = build_problem(parse_problem(_run_problem(family)))
    assert _constants(p) == RUN_CONSTANTS[family]


def test_sweep_problem_constants():
    cfg = parse_problem(SWEEP_CONFIG["problem"])
    got = {
        m: _constants(build_problem(dataclasses.replace(cfg, m=m)))
        for m in SWEEP_CONFIG["m_list"]
    }
    assert got == SWEEP_CONSTANTS
