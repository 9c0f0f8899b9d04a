"""Golden sha256 digests of the outputs of pinned configs.

Criterion 10 compares runs with each other; these digests compare them with
recorded bytes, so a change to the oracle streams, the update rules, the
calculator, the checks or the output writers shows up here. A change that
alters the bytes on purpose updates the digests and says why in CHANGES.md.
"""

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

# These digests, and in RUN_OUTPUT_DIGESTS and OUTPUT_DIGESTS["stochastic"]
# the checks.csv, metrics CSVs and summary.txt, were rebaselined once when a
# seed's oracle noise became one stream read in iteration order instead of
# one stream per iteration. Row t = 0 of every metrics CSV held, since
# iteration 0's block is the first draw under the same key; every later noisy
# block moved. The sigma = 0 pins, the sweep pins, the echoes and the params
# reports held.
RUN_DIGESTS = {
    ("exp_pair", "dnsgd"): "39ff0bef8bd9476b01f312a58d3d3484ee06ff5bb3aa8bdd9e5d57c314a69ebe",
    ("exp_pair", "dsgd"): "8793084419bbbc6ba44cc82c854eecde2eb4390c138e5a9ec7231fb7d8b654d6",
    ("exp_pair", "dsgt"): "71e055888a68027ae598ce76f762eee5c1e25404c601509a3bbf51d3061835d7",
    ("exp_pair", "dnasa"): "67e7b80be252da6b37946cb0f69e7ec13b7e466e14b8d94d27a199167465bb59",
    ("poly_even", "dnsgd"): "4b369b3917d5940813bbbf28d1841dac68939b1faa5d0db7d3b9ca2e48532f3e",
    ("poly_even", "dsgd"): "f5600ce7af771ebea8c814eb9a46db6783b363f0e8687a1f73a08dc137cf054a",
    ("poly_even", "dsgt"): "43a248f5a37cbc7c4c01de0c62b4abf8ccf9e657f97e28cd0cc018f4032be246",
    ("poly_even", "dnasa"): "2fb833fdfb2258efe03049482f72aa87a579eb9d66004c17b528ceb8871dfb96",
    ("quadratic", "dnsgd"): "08a42f782a824281f3273ac092a89d0c2cfcf789fe12c17be185b7d12825f80e",
    ("quadratic", "dsgd"): "dcbece7952b3a3dba4c7b8c4da9e919a851c5ef9e57f39627c536f9665283e2f",
    ("quadratic", "dsgt"): "0220343b8cebefbb6d5cd367256d7f197e60389f468e3668a003379b51847f21",
    ("quadratic", "dnasa"): "63919c9a32a13c7d286552c61302e78c9fee33faef16b3961dac9273d738337a",
}

# Every file of the criterion-10 dnsgd run: the one pinned echo whose config
# carries an explicit hyperparams block.
RUN_OUTPUT_DIGESTS = {
    "checks.csv": "420f4a0eea3688618e2b546a75d72e62bb8ef444a7c364454668ea4932b28a9a",
    "config_echo.json": "63f5c5257599e5f1d338e61e2985842f664fd3969ddd51cc05744d19cccbce28",
    "metrics_seed000.csv": "d200d9f254750269b55f7f008b5a5ded4fcc499d7648eaaf9ad5c400521bc029",
    "metrics_seed001.csv": "b0a674415fc79193587f14b49ae4772624f80e12838d235d181fcf31564d0b5e",
    "metrics_seed002.csv": "e3f1097e6fc12544bfae617d4494e10c0e2111c9be89c53e3ec81900833b5e82",
    "metrics_seed003.csv": "306af8117722e00b35541ad30c94b50befaa1c1ead27185dfdbdb8da2220004b",
    "summary.txt": "0a2a4aa3b94d2facca32b8e8c4ba0ca423eb52b18890dc1b42dcc5d43103539c",
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

SWEEP_DIGEST = "3c94204d04f4c7ab6e825e0c8cd37c22469771e0623ec983878ca24d9804dedc"

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


# Calculator runs whose outputs together emit all four built-in
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
        "auto": {"epsilon": 0.3, "t_cap": 20},
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
        "auto": {"epsilon": 0.12, "t_cap": 30},
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
# held both times. They were rebaselined a third time when auto.k_mode went
# and every auto run took at least the rho_guard depth: k_mode left the echoed
# configs, and the sweep's k_inner rose to the guard's depth (9, 11, 21 to
# 24, 32, 65), which moved its summary.txt and the comm-rounds column of
# SWEEP_DIGEST; its batch sizes, first hits and samples held. The two configs
# here already ran at the guard's depth, so their other files held.
OUTPUT_DIGESTS = {
    "stochastic": {
        "checks.csv": "cfb7c8ba11a067a638f14a700ffff0b097e60c8e75a6cd7c48c42545c3b17670",
        "config_echo.json": "70d2d71d40aa132977911bd0d372392533c0714a9677bc3d8c0351f3f2543216",
        "metrics_seed000.csv": "393caac319ed1786f5f854bb1b5d75cb6b2f1526b706dc7b8c559b8fc698211c",
        "metrics_seed001.csv": "ba05b30d55d2e5b7bce61e2396be745ac247c95d4e2e4b0be6785e7ce0de0a0d",
        "metrics_seed002.csv": "220c90448fa2e996e1255883498fbbc1d20813a91ba5bb432d9f309b5834c0ce",
        "metrics_seed003.csv": "d0c26847e40240edc25ffaf3ee22cc0eb5ec2a57e1627f114000edbd4d863d65",
        "metrics_seed004.csv": "4f850ed762c25cca98bf3635bed6261a9b6f3d22ffd381823686ba35669543d2",
        "metrics_seed005.csv": "8032e303287313a0ea979535f7366bcd0a1b3adf1a32858b994b88bcc221280c",
        "metrics_seed006.csv": "79419d8f3cc2b1d32799a5464649c33be3ea97b0b619e8bf7e2fbf637791716c",
        "metrics_seed007.csv": "c74bd2e3e156d522309fc6fd17e6c7936057085a7653f714bbe6a2f6af98a385",
        "metrics_seed008.csv": "d3eca4a83b2d3e858b21ef4edbd141c52f0709f134c8aeb4ede7547c61442ecf",
        "metrics_seed009.csv": "d39ec00b067740c0701a9898f38b050cac480bf43faa8eb09891f49002bb1a3b",
        "params_report.txt": "95294000a5f6ce6f416dce9b9e6d349cea0fa1a6a26829968504937e847a7c2f",
        "summary.txt": "2030e37800ab709ccd57a9b58832e87c5ce3bcbd0e348b46e55e38b32e6f0cab",
    },
    "deterministic": {
        "checks.csv": "12d6a3d8b7036d902244ff50d55fbcd3acdb8d6aa06849ae114e7c20caf4984f",
        "config_echo.json": "9a3c1792d9a131acec4b351e58a42a54713beb7bf71d5dd3b89e18748c276205",
        "metrics_seed000.csv": "1d193c6d81daaef1692d91f7316244dcbf9c3fe2cb5c6de4004c98e36f6bc764",
        "params_report.txt": "311ca991d3f4e9723f12aa3564c76874f1381437e1d54e0b38a3cfe5de99144f",
        "summary.txt": "d76ba4bb35db8a31d88f898920e3c3a758a4fa4bb99a790c1da83264a9e6952a",
    },
}

# The other files of the pinned sweep; speedup.csv is SWEEP_DIGEST.
SWEEP_OUTPUT_DIGESTS = {
    "config_echo.json": "decec46dbf995575a3fa4cb32485fbdb94f592a11d8f1fba45060a5430d29175",
    "summary.txt": "e75e908e57f22578ce80e6efceb9dbaade2fbf77d67a2cdc3bd3f823cd477c9f",
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
    if (family, algorithm) == ("exp_pair", "dnsgd"):
        assert _file_digests(out) == RUN_OUTPUT_DIGESTS


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
        m: _constants(build_problem(cfg._replace(m=m)))
        for m in SWEEP_CONFIG["m_list"]
    }
    assert got == SWEEP_CONSTANTS
