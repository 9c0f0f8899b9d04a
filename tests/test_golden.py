"""Golden sha256 digests of the outputs of pinned configs.

Criterion 10 compares runs with each other; these digests compare them with
recorded bytes, so a change to the oracle streams, the update rules, the
calculator, the checks or the output writers shows up here. A change that
alters the bytes on purpose updates the digests and says why in CHANGES.md.
The cross-kernel test at the end compares the same outputs with a child's,
written under another BLAS kernel.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dnsgd
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
# They, and the files of OUTPUT_DIGESTS that record norms, were rebaselined
# once more when every norm and sum of squares became numpy's pairwise
# add.reduce (problems._sum_squares) instead of BLAS ddot, whose summing order
# the BLAS kernel picks. No iterate moved: the norm columns, phi and the
# quadratic's f_mean moved in their last bits, and with them the criterion-10
# dnsgd run's consensus_bound figure and the deterministic run's delta_phi and
# average gradient norm in summary.txt. The echoes, the params reports, the
# stochastic run's checks.csv and summary.txt and the sweep pins held.
# Every dnsgd pin here and below was rebaselined once more when a depth-k mix
# became k products with W instead of k + 1, the dense route took the
# closed-form gains, and rho became the exact contraction on the matrix's own
# spectrum (gossip.contraction) instead of the worst-case bound: every dnsgd
# iterate moved, and with them its checks, echo and summary. The dsgd, dsgt
# and dnasa digests held.
RUN_DIGESTS = {
    ("exp_pair", "dnsgd"): "8a0eb42b6008989551991bcc1cab6704cd0c7d3f079af0d04bbc567701f7ddc6",
    ("exp_pair", "dsgd"): "9fe37dfbab588ceaa71141309ec4ce4a5fbe46bd8c3301ee148b693d0f126ac6",
    ("exp_pair", "dsgt"): "70eacd1f5f6e9462169dcad555b63c1cd5f6df342f9b55bc88a23b3506b5d610",
    ("exp_pair", "dnasa"): "50383fa58049cecc2c2864ef5e2023a1d923682ce1d5459a42077122b6c7230e",
    ("poly_even", "dnsgd"): "18300ab86db36d1c08b4c3b40fd18c8898d45a78498bb778e19b06bf8329775a",
    ("poly_even", "dsgd"): "3c23590ababb1a8361f6c8fa0d7ed86855bb7e602f1f31d515a98ecb6ffed571",
    ("poly_even", "dsgt"): "295ce301da263e677309d1234d44952f6b42d20b574d1fc3a5d7b318eced1211",
    ("poly_even", "dnasa"): "e4290d8829477bfe35c439e58548c81805f53178d504b7eab76ebe7bf6445931",
    ("quadratic", "dnsgd"): "0f3c6055aaa5615624db59459edbb02587e3260e63d9c7452bcd5cc48cdaa2e4",
    ("quadratic", "dsgd"): "cd794b385dc5dc7989ce4174e972d69b3985fe4b955fd27485a4acdc066775a3",
    ("quadratic", "dsgt"): "e79190327914e2823bda3946a01197d0c276b232a668020c173f24723189f51d",
    ("quadratic", "dnasa"): "f17f50b9d70f4476b197c1b3aabca1ae97a808c27bddbbea21a689865796bb74",
}

# Every file of the criterion-10 dnsgd run: the one pinned echo whose config
# carries an explicit hyperparams block.
RUN_OUTPUT_DIGESTS = {
    "checks.csv": "eea5d7c26a50a6179db7c5df01f0c10f477cc4e7f6363b0141e75aea54d7f4a9",
    "config_echo.json": "153a8f1165ee2aa15958a1fca4c5a08c9e1f8eeb95e07e316b5e64ae52948a39",
    "metrics_seed000.csv": "c712d1f1f7e7827c2d0b2dfd8d5161f66d1053853b2bff7c7bbb19e34301d2ab",
    "metrics_seed001.csv": "cc28281258f711823a35b6de8d75473e70e3e648ee7fa077fcd836b2f7e2665a",
    "metrics_seed002.csv": "58328578566abb1cffa6e083f8342c62cde6a64a6b7ff14a6364c586dd01ef0d",
    "metrics_seed003.csv": "7a8f25ed570a6b6d1354ff17c6322ba0b642260523953406a9344e844911e5f8",
    "summary.txt": "277e8dddefad35194fb0554ebb73c2aa791784759c9c51467ad9dce883d4f2b4",
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

SWEEP_DIGEST = "be3b5b27c8e9ff559e738cc18ef7898f7bfc571fba532c16efc143844d5e6409"

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
# here already ran at the guard's depth, so their other files held. With the
# exact contraction (see RUN_DIGESTS) k_inner fell from 32 to 7 in the
# stochastic run and from 70 to 16 in the deterministic one (k_init stayed 1),
# and the sweep's from 24, 32, 65 to 5, 7, 15; the sweep's echo, batch sizes,
# first hits and samples held.
OUTPUT_DIGESTS = {
    "stochastic": {
        "checks.csv": "bbaca89f291a142bd382ce54389c944fb55792c1c8ab0c3c1573f3f8ee43db5d",
        "config_echo.json": "1a33cd8ca20b391efd8dd390f32d9f9a56e07345f3d4414bc5996b8dace15d95",
        "metrics_seed000.csv": "64e38b9564059f8c4fb7b46df42867466b66b319efc9ed9ffc724ad0000802ab",
        "metrics_seed001.csv": "e2798286b6bb6a1be3d9ebdeaae1da9fdaff51c519d21d3d0932f76020ecf7f3",
        "metrics_seed002.csv": "ca04caa60ec2c58e456a176d826f908c34ce30d0da8406a510e2258e65fd1a0a",
        "metrics_seed003.csv": "e30edf3fb23bff18aabe8e1fa2d4f939339f1d27ac5bfa961e693382b7e90641",
        "metrics_seed004.csv": "a40918233e8d8e787934d60d36b0670d93a4b2c23faecf2e7d719eaae75de260",
        "metrics_seed005.csv": "a38aae72369074eed153069f64d5e4099f488ba61d587df7c804bdcffd4e2145",
        "metrics_seed006.csv": "6c7a3d2c671c58aa51b7efea75185cd8d1751814fa310dc38e42679731912c27",
        "metrics_seed007.csv": "902627a7a982dea3f169fd1b1342d5c82c9b4d6e9f8b84aa5bd9eb9e289e7d4f",
        "metrics_seed008.csv": "9d2f58b197992aee76c990d1212977733ae4264330f06070e8b5e75f722c7c7f",
        "metrics_seed009.csv": "7a3194da0082583c8e8262a2ce836067be2476414cf48e99d67724dd4118ecf8",
        "params_report.txt": "1da22b039f977995f98c6d525f9dc8e53e3aa5879a417c7ee5aa699dfe02f306",
        "summary.txt": "9d0ffd4f6f4ab9a45cd8d3ad94dbf061fbe1e72ac6e866293f8104916b638a93",
    },
    "deterministic": {
        "checks.csv": "19ce550f21b80e5b6384d11c75d14f547a954c4e11c7073768904c40dc66f738",
        "config_echo.json": "955a5500276fabda20f57b7d65c8e16a0f00977b8ccfe5a382ec33f851d2f30a",
        "metrics_seed000.csv": "891a70cf5a840af900a84fd49eec39324934525bd847ef6e201d73e9fcecf152",
        "params_report.txt": "77def50ddb5f343eca09232f57d44e890b7857c50eb6d785ee6cbd815ba3dd89",
        "summary.txt": "1ab24145cc6c440f9bac61b63e833cf634a0045e7baf47c51201d15d6bc20d99",
    },
}

# The other files of the pinned sweep; speedup.csv is SWEEP_DIGEST.
SWEEP_OUTPUT_DIGESTS = {
    "config_echo.json": "decec46dbf995575a3fa4cb32485fbdb94f592a11d8f1fba45060a5430d29175",
    "summary.txt": "043e824d865e79cc3f0994a3445665933138b9b23ace76f01d9b84ef4b5d456b",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _constants(p) -> tuple[str, str, str]:
    return p.l0.hex(), p.l1.hex(), p.f_star.hex()


def _run_problem(family: str) -> dict:
    problem = {k: v for k, v in RUN_CONFIG["problem"].items() if k != "rate"}
    problem.update(family=family, **FAMILY_PARAMS[family])
    return problem


def _run_config(family: str, algorithm: str) -> dict:
    return {**RUN_CONFIG, "algorithm": algorithm, "problem": _run_problem(family)}


def _case_id(family: str, algorithm: str) -> str:
    # the criterion-10 family keeps the bare algorithm name as its id
    return algorithm if family == "exp_pair" else f"{family}-{algorithm}"


def _write_outputs(tmp_path, config: dict, *commands: str):
    """Run each command on config into tmp_path / "out", which it returns."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    for command in commands:
        assert cli_main([command, "--config", str(path), "--out-dir", str(out)]) == 0
    return out


@pytest.mark.parametrize(
    "family,algorithm",
    [pytest.param(f, a, id=_case_id(f, a)) for f in FAMILY_PARAMS for a in ALGORITHMS],
)
def test_run_metrics_digest(tmp_path, family, algorithm):
    out = _write_outputs(tmp_path, _run_config(family, algorithm), "run")
    data = b"".join((out / f"metrics_seed{i:03d}.csv").read_bytes() for i in range(4))
    assert _sha256(data) == RUN_DIGESTS[family, algorithm]
    if (family, algorithm) == ("exp_pair", "dnsgd"):
        assert _file_digests(out) == RUN_OUTPUT_DIGESTS


def test_sweep_speedup_digest(tmp_path):
    out = _write_outputs(tmp_path, SWEEP_CONFIG, "sweep")
    assert _sha256((out / "speedup.csv").read_bytes()) == SWEEP_DIGEST


def _file_digests(out) -> dict[str, str]:
    return {path.name: _sha256(path.read_bytes()) for path in sorted(out.iterdir())}


@pytest.mark.parametrize("case", OUTPUT_CONFIGS)
def test_run_output_digests(tmp_path, case):
    out = _write_outputs(tmp_path, OUTPUT_CONFIGS[case], "run", "params")
    checks = (out / "checks.csv").read_text().splitlines()[1:]
    assert [line.split(",")[0] for line in checks] == OUTPUT_CHECKS[case]
    assert all(line.split(",")[1] == "True" for line in checks)
    assert _file_digests(out) == OUTPUT_DIGESTS[case]


def test_sweep_output_digests(tmp_path):
    out = _write_outputs(tmp_path, SWEEP_CONFIG, "sweep")
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


def pinned_outputs(root: Path) -> dict[str, str]:
    """sha256 of every file that the pinned run, params and sweep commands write.

    Each command set writes under its own directory of root; keys are
    "<case>/<file name>".
    """
    cases = {
        f"run-{_case_id(f, a)}": (_run_config(f, a), ("run",))
        for f in FAMILY_PARAMS for a in ALGORITHMS
    }
    cases.update({f"output-{c}": (cfg, ("run", "params")) for c, cfg in OUTPUT_CONFIGS.items()})
    cases["sweep"] = (SWEEP_CONFIG, ("sweep",))
    digests = {}
    for case, (config, commands) in cases.items():
        (root / case).mkdir()
        out = _write_outputs(root / case, config, *commands)
        digests.update({f"{case}/{name}": d for name, d in _file_digests(out).items()})
    return digests


def _openblas_with_avx2() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    from numpy._core._multiarray_umath import __cpu_features__ as features

    openblas = "openblas" in blas.get("name", "").lower()
    return openblas and features.get("AVX2", False) and features.get("FMA3", False)


# A child writes every pinned output again with OpenBLAS forced onto its
# Haswell (AVX2) kernels; OpenBLAS otherwise picks its kernels from the CPU.
# validate-topology is left out: its eigenvalue_range line reads LAPACK
# eigvalsh's eigenvalues, whose last bits depend on the kernel (complete6
# prints 4.44e-16 under SkylakeX and 0 under Haswell).
_CHILD = (
    "import json, sys\n"
    "from pathlib import Path\n"
    "from test_golden import pinned_outputs\n"
    "out = Path(sys.argv[1])\n"
    "(out / 'digests.json').write_text(json.dumps(pinned_outputs(out)))\n"
)


@pytest.mark.skipif(not _openblas_with_avx2(), reason="needs OpenBLAS on a CPU with AVX2 and FMA3")
def test_pinned_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    (tmp_path / "here").mkdir()
    (tmp_path / "child").mkdir()
    path = [str(Path(dnsgd.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    path += [str(Path(p).resolve()) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {
        **os.environ, "PYTHONPATH": os.pathsep.join(path),
        "OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(tmp_path / "child")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads((tmp_path / "child" / "digests.json").read_text())
    here = pinned_outputs(tmp_path / "here")
    assert sorted(k for k in here.keys() | child.keys() if here.get(k) != child.get(k)) == []


# The benchmark's ring_m256 run (m = 256, T = 12). A ring of
# topology.CLOSED_FORM_MIN_M agents or more takes its closed-form spectrum and
# FFT gossip, neither of which goes through LAPACK or BLAS, so its bytes hold
# across OpenBLAS thread counts and kernels. Children run it at one and two
# threads, whichever count this process has, and on the Haswell kernels.
RING_M256_CONFIG = {
    "problem": {"family": "exp_pair", "d": 10, "m": 256, "zeta": 0.2, "sigma": 0.1,
                "seed": 1, "rate": 1.0},
    "topology": {"kind": "ring"}, "algorithm": "dnsgd", "x0": 1.5, "master_seed": 1,
    "auto": {"epsilon": 0.2, "t_cap": 12}, "num_seeds": 1,
}

_RING_CHILD = (
    "import json, sys\n"
    "from pathlib import Path\n"
    "from test_golden import RING_M256_CONFIG, _file_digests, _write_outputs\n"
    "root = Path(sys.argv[1])\n"
    "digests = _file_digests(_write_outputs(root, RING_M256_CONFIG, 'run'))\n"
    "(root / 'digests.json').write_text(json.dumps(digests))\n"
)


@pytest.mark.skipif(not _openblas_with_avx2(), reason="needs OpenBLAS on a CPU with AVX2 and FMA3")
@pytest.mark.parametrize("blas", [
    pytest.param({"OPENBLAS_NUM_THREADS": "1"}, id="one-thread"),
    pytest.param({"OPENBLAS_NUM_THREADS": "2"}, id="two-threads"),
    pytest.param({"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_NUM_THREADS": "1"}, id="haswell"),
])
def test_long_ring_outputs_do_not_depend_on_blas_threads_or_kernel(tmp_path, blas):
    (tmp_path / "here").mkdir()
    (tmp_path / "child").mkdir()
    path = [str(Path(dnsgd.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    path += [str(Path(p).resolve()) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path), **blas}
    proc = subprocess.run(
        [sys.executable, "-c", _RING_CHILD, str(tmp_path / "child")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    child = json.loads((tmp_path / "child" / "digests.json").read_text())
    assert child == _file_digests(_write_outputs(tmp_path / "here", RING_M256_CONFIG, "run"))
