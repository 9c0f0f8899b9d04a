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
import math
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
# Every exp_pair and poly_even pin here and below was rebaselined once more
# when their l0 became the proved closed form instead of a sampled
# certificate: l0 feeds phi in every run and the calculator in every auto run.
# In the same change a ring's accelerated mix took the real Fourier
# eigenbasis instead of eigh's, which picks a basis of each pair of equal
# eigenvalues that differs between BLAS kernels (the new stochastic outputs
# showed it, in one metrics row under the Haswell kernels); that moved the
# quadratic dnsgd digest, the one quadratic pin that changed. The criterion-10
# dnsgd echo, the dsgd, dsgt and dnasa quadratic digests, the deterministic
# (path) outputs and the sweep's echo held.
# Every dnsgd pin here and below was rebaselined once more when each mixing
# matrix became one spectrum: a ring or path of three agents or more takes its
# closed-form eigenvalues, which lambda2, rho and the gains read, instead of
# eigvalsh's for lambda2 and eigh's or the real Fourier basis's for the mix
# (lambda2 of the 4-ring went from 0.66666666666666674 to 2/3 rounded,
# 0.66666666666666663), and a mix off the Fourier route (any graph below
# gossip.CLOSED_FORM_MIN_M agents) became one product with the materialised
# p_k(W) instead of two products with the eigenbasis. Every dnsgd iterate moved in its last bits, and with it its
# checks, echo and summary; the auto runs kept their k_inner and k_init. The
# dsgd, dsgt and dnasa metrics CSVs, both params reports and every sweep file
# held (the baselines' echoes and summaries, which no digest pins, print the
# new lambda2).
RUN_DIGESTS = {
    ("exp_pair", "dnsgd"): "1bbc83927a4f2ea6eedb31ff619f3533ab76dfe1b0fa37106c9ef00094f55dd9",
    ("exp_pair", "dsgd"): "886eeed13ae40f4b26c470fad21c3227734003b08a466f27482d7fb7784f2186",
    ("exp_pair", "dsgt"): "0e7c860c49f3405ea339f384e582251fcb378c13146671d0cbee6b5978f504c7",
    ("exp_pair", "dnasa"): "873d7fdef33641e83b078cbce6da5acb35856f9da2baaadf02dc27c20ecb9733",
    ("poly_even", "dnsgd"): "447196e59492d7d3436de58cc7c0ebe678f69c763f837d3cd661b0ba69e834f2",
    ("poly_even", "dsgd"): "2f537f3fb1c222be900deaddb748110ec40aa6814fd298fe1a5cf5d68526381a",
    ("poly_even", "dsgt"): "f221054bf1890189341f28a985d4d7b856d451a40b7f6f673b41e25669e737da",
    ("poly_even", "dnasa"): "8593730c501df8024cc3336ef5dd9dbb2908480d5d8e440b24ad84835e3b9392",
    ("quadratic", "dnsgd"): "227197a9ab11a32ef7eea799343303b2d62d156eaaa58c005940f2475ee4b6dc",
    ("quadratic", "dsgd"): "cd794b385dc5dc7989ce4174e972d69b3985fe4b955fd27485a4acdc066775a3",
    ("quadratic", "dsgt"): "e79190327914e2823bda3946a01197d0c276b232a668020c173f24723189f51d",
    ("quadratic", "dnasa"): "f17f50b9d70f4476b197c1b3aabca1ae97a808c27bddbbea21a689865796bb74",
}

# Every file of the criterion-10 dnsgd run: the one pinned echo whose config
# carries an explicit hyperparams block.
RUN_OUTPUT_DIGESTS = {
    "checks.csv": "c702ca2bd27eccf6fce5e25cdd672a3f59c72cd0bb9f5a9b244192b62cee5358",
    "config_echo.json": "1b4c5f1de6cb4096c9897626f1a2ac6f85bb70923a9278b2ce09e1048820506a",
    "metrics_seed000.csv": "d117fddf3f58a463010c100859eb1d365ead4c31e25b08ea9c7d11c31575531a",
    "metrics_seed001.csv": "cad6c1888394064f05d8281540b10e439a6f414561bd1677846e633808df5970",
    "metrics_seed002.csv": "4c785fde0ebd6b6f6e21a396c14483417858610b79a858c2636250aa88f84b71",
    "metrics_seed003.csv": "60703923d64bc03ec73b53f5827d91564e1b3b8fe5fde0dc3c66489dbb9463a0",
    "summary.txt": "abbb5bc2d195df2365f4d4a2fbf8b068cc2a2c140854589b92daccd78625be5a",
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

SWEEP_DIGEST = "3bf8bc7a4b48903b5f5009f770c14c215fbd6604dd304e88304b881f16936561"

# float.hex() of the proved (l0, l1, f_star) of the problems that the
# pinned configs build. The digests fix l0 only through phi and the calculator.
RUN_CONSTANTS = {
    "exp_pair": ("0x1.e021003855b76p-2", "0x1.71547652b82fep+0", "0x1.0000000000000p+0"),
    "poly_even": ("0x1.3f62e93eec246p+0", "0x1.8000000000000p+1", "0x0.0p+0"),
    "quadratic": ("0x1.0000000000000p+0", "0x0.0p+0", "0x0.0p+0"),
}

SWEEP_CONSTANTS = {
    m: ("0x1.96434ef497476p-2", "0x1.71547652b82fep+0", "0x1.0000000000000p+0")
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
        "checks.csv": "752fbc41663b553be2da6ce145cacf178fe02211e526b6b39814446d6617c00c",
        "config_echo.json": "4cb037697e345f50f8f7763cb2d540af586639aaad751e295bb37d554f7a18f4",
        "metrics_seed000.csv": "b76261216ee4a1449e4e0b11ce778da5ddbd5b41649f521bd0cd1e028c1b0ac6",
        "metrics_seed001.csv": "d410e94d67af5f3a3e922a3e05b6966de9a871b0a4fb81cd5568543d3892bbe2",
        "metrics_seed002.csv": "dc04615cda25afec276324bfb6ab72a766a3517e138d2bdf9a58bcac5ab8fcef",
        "metrics_seed003.csv": "df31884464cebb99ce0f8091dd919dcdd3611328f49ffecb45d4e389fcde1e54",
        "metrics_seed004.csv": "3e8b90cc52e7e6ad57eb266e1e8c779197a80489356acf71b8b6523ba1011b1c",
        "metrics_seed005.csv": "fc222e97609f99c04a2f2b6a057a63b9442651d96f50f13377837b63f19ec023",
        "metrics_seed006.csv": "5c860d69715ae7b75a91d50d082b79106748fa926b8fee4e3bd5f39bd0887fdc",
        "metrics_seed007.csv": "e0854b2b28fde5271f34148c3b78a3405d8d5b5586c63e8a57330e639845ca12",
        "metrics_seed008.csv": "405062a05162338c84fcf168c3d4f53e0d9d2c5b3108ed3466974c7946dd75f0",
        "metrics_seed009.csv": "d49962ccd36e272a2ebf718d6e5569700f51e999c0a1ee194fad915d887ca804",
        "params_report.txt": "16c47a79aab900fcac16d8a102004311af5acf5bd8c1b0f8d56fc0bbb794a5bd",
        "summary.txt": "ece74ba9210ac26bf7c2a676ccf87e688f1d481f06b9e0690829543af022a3ab",
    },
    "deterministic": {
        "checks.csv": "86fc6e78407d067fbaac20d37c4e7aeaaa108109cfa2cbf53a0b59d02effa924",
        "config_echo.json": "6b64db0c0086a498abcca78b735af34d813d42d61565ab5333ddc1c4473d341e",
        "metrics_seed000.csv": "6c88c83469a80b79314787271faad86a91c236d532e6424ee7332410669a9d81",
        "params_report.txt": "77def50ddb5f343eca09232f57d44e890b7857c50eb6d785ee6cbd815ba3dd89",
        "summary.txt": "d8ab62fa51fa487446a554c638a77593d6b236ac01a1605bd72944dac2739ad6",
    },
}

# The other files of the pinned sweep; speedup.csv is SWEEP_DIGEST.
SWEEP_OUTPUT_DIGESTS = {
    "config_echo.json": "decec46dbf995575a3fa4cb32485fbdb94f592a11d8f1fba45060a5430d29175",
    "summary.txt": "c4f1ceee02544d696ec4e531d5bdfd18889dc938c76da58c89f05e85e25100f9",
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


def _closed_form_l0(problem: dict, family: str) -> float:
    """The family's proved l0 plus l1 zeta, since every pinned problem's largest offset is zeta."""
    d, zeta, log2 = problem["d"], problem["zeta"], math.log(2.0)
    if family == "exp_pair":
        rate = problem["rate"]
        return 3.0 * rate * rate / (4.0 * d * log2) + rate / log2 * zeta
    if family == "poly_even":
        k = problem["power"] - 1
        t = 1.0 / (k * (2.0 ** (1.0 / (k - 1)) - 1.0))
        return 2.0 * problem["scale"] * t ** (k - 1) + k * zeta
    return problem["curvature"]


@pytest.mark.parametrize("family", FAMILY_PARAMS)
def test_run_problem_constants(family):
    p = build_problem(parse_problem(_run_problem(family)))
    assert _constants(p) == RUN_CONSTANTS[family]
    pinned = float.fromhex(RUN_CONSTANTS[family][0])
    assert pinned == pytest.approx(_closed_form_l0(_run_problem(family), family), rel=1e-12)


def test_sweep_problem_constants():
    cfg = parse_problem(SWEEP_CONFIG["problem"])
    got = {
        m: _constants(build_problem(cfg._replace(m=m)))
        for m in SWEEP_CONFIG["m_list"]
    }
    assert got == SWEEP_CONSTANTS
    pinned = float.fromhex(SWEEP_CONSTANTS[2][0])
    assert pinned == pytest.approx(_closed_form_l0(SWEEP_CONFIG["problem"], "exp_pair"), rel=1e-12)


# The criterion-3 config (exp_pair, m = 8 ring, 3 seeds); its outputs are not
# pinned by digest, but the cross-kernel test below compares them.
CRITERION3_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "run_exp_pair.json"


def pinned_outputs(root: Path) -> dict[str, str]:
    """sha256 of every file that the pinned run, params and sweep commands and
    the criterion-3 run write.

    Each command set writes under its own directory of root; keys are
    "<case>/<file name>".
    """
    cases = {
        f"run-{_case_id(f, a)}": (_run_config(f, a), ("run",))
        for f in FAMILY_PARAMS for a in ALGORITHMS
    }
    cases.update({f"output-{c}": (cfg, ("run", "params")) for c, cfg in OUTPUT_CONFIGS.items()})
    cases["sweep"] = (SWEEP_CONFIG, ("sweep",))
    cases["criterion3"] = (json.loads(CRITERION3_CONFIG.read_text()), ("run",))
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


# The benchmark's ring_m256 run (m = 256, T = 12). A ring takes its
# closed-form spectrum, and from gossip.CLOSED_FORM_MIN_M agents FFT gossip,
# neither of which goes through LAPACK or BLAS, so its bytes hold
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
