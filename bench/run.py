"""dnsgd benchmark: wall time of the ``dnsgd run`` and ``dnsgd sweep`` commands.

Usage, from the repository root:

    python3 bench/run.py --workload small_m --seed 1 --seconds 55 --trace 0

One run writes the workload's configs (the seed becomes ``master_seed``),
then repeats the workload's commands, one child process at a time, for
about ``--seconds`` and at least twice. Every child runs the ``dnsgd``
command line through ``child.py`` with one BLAS thread and the default
``--threads 1``.

Just before and after each command, this process times a fixed piece of
reference work (reference.py), and the command's times are scaled to the
reference speed, so that the host's changing speed cancels out.

With ``--trace 0`` every repetition is untraced; only the set-up calls are
timed. The run reports the end-to-end metrics named in BENCHMARK.json from
each command's median over the repetitions (see ``end_to_end``). With
``--trace 1`` untraced and traced repetitions alternate. A traced repetition
wraps every public function of every dnsgd module (see spans.py); the run
reports the per-layer metrics of the median traced repetition, and the
tracing overhead as the median difference between a traced repetition and
the untraced one before it.

Outputs are checked in every repetition: exit code 0, every built-in check
passed, and CSV bytes equal to those of the run's first repetition. A
trajectory in a failing command counts as failed. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give machine facts and per-metric detail.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

MIN_REPS = 2
RUN_DEADLINE_S = 170.0

# Child environment: one BLAS thread, the package from this checkout.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONPATH": str(SRC),
}

# Criterion-3 problem: exp_pair, d=10, sigma=0.1 on a ring. With x0=1.5 and
# epsilon=0.2 at m=8 the calculator gives eta~0.0523, b=235, T=2071, k_inner=21.
PROBLEM = {"family": "exp_pair", "d": 10, "m": 8, "zeta": 0.2, "sigma": 0.1,
           "seed": 1, "rate": 1.0}
T_FULL = 50_000  # above the calculator's T, so it does not bind
RING_M256_T = 12  # iterations of the m=256 ring run (about 0.1 s each)
BASELINE_T = 1000  # iterations of each baseline run (the calculator gives 2071)
BASELINES = ("dsgd", "dsgt", "dnasa")


@dataclass(frozen=True)
class Command:
    subcommand: str  # "run" or "sweep"
    config: dict

    @property
    def trajectories(self) -> int:
        return self.config["num_seeds"] * len(self.config.get("m_list", [None]))


def run_config(seed: int, algorithm: str = "dnsgd", m: int = 8, t_cap: int = T_FULL,
               num_seeds: int = 1) -> dict:
    return {
        "problem": {**PROBLEM, "m": m}, "topology": {"kind": "ring"},
        "algorithm": algorithm, "x0": 1.5, "master_seed": seed,
        "auto": {"epsilon": 0.2, "t_cap": t_cap},
        "num_seeds": num_seeds, "snapshot_every": 0,
    }


def sweep_config(seed: int, t_cap: int = 200, num_seeds: int = 3) -> dict:
    """Criterion-5 sweep: m in {2, 4, 8, 16}, sigma=1.0, T=200."""
    return {
        "problem": {**PROBLEM, "m": 2, "sigma": 1.0}, "topology": {"kind": "ring"},
        "algorithm": "dnsgd", "x0": 1.0, "master_seed": seed,
        "auto": {"epsilon": 0.3, "t_cap": t_cap}, "m_list": [2, 4, 8, 16],
        "target_epsilon": 0.3, "num_seeds": num_seeds, "snapshot_every": 0,
    }


def workload_commands(name: str, seed: int, tiny: bool = False) -> list[Command]:
    """The commands of one repetition. ``tiny`` shortens every run for smoke tests."""
    t = 3 if tiny else T_FULL
    if name == "small_m":
        return [
            Command("run", run_config(seed, t_cap=t)),
            *(Command("run", run_config(seed, algorithm=a, t_cap=min(t, BASELINE_T)))
              for a in BASELINES),
            Command("sweep", sweep_config(seed, t_cap=min(t, 200),
                                          num_seeds=1 if tiny else 3)),
        ]
    if name == "ring_m256":
        return [Command("run", run_config(seed, m=256, t_cap=min(t, RING_M256_T)))]
    raise ValueError(f"unknown workload {name!r}")


# Each workload and the kind of reference work that matches the bottleneck of
# its iterations (reference.py). Set-up is interpreter-bound on both.
WORKLOADS = {"small_m": "interp", "ring_m256": "dense"}
SETUP_KIND = "interp"


# ---------------------------------------------------------------- children


def child_env() -> dict:
    return {**os.environ, **CHILD_ENV}


def launch(argv: list[str], env: dict, log: Path, deadline: float) -> tuple[int, float, float]:
    """Run argv to completion; return exit code, wall seconds and peak RSS in MB.

    The child is killed at ``deadline`` (a perf_counter reading).
    """
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        env["BENCH_T0"] = repr(t0)
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.perf_counter(), 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


@dataclass
class CommandResult:
    command: Command
    rc: int
    wall_s: float
    rss_mb: float
    spans: spans.Spans | None
    # reference.REF_SECONDS over the reference time around the command: the
    # interp kind for the set-up calls, the workload's kind for the rest.
    setup_speed: float = 1.0
    speed: float = 1.0
    big_t: int = 0
    checks_ok: bool = False
    digests: dict[str, str] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    failed: int = 0

    @property
    def setup_s(self) -> float:
        if self.spans is None:
            return 0.0
        return spans.busy(self.spans, spans.SETUP_FUNCTIONS)

    @property
    def ref_wall_s(self) -> float:
        return self.ref_setup_s + (self.wall_s - self.setup_s) * self.speed

    @property
    def ref_setup_s(self) -> float:
        return self.setup_s * self.setup_speed


def run_command(cmd: Command, cfg_path: Path, out: Path, trace: bool,
                deadline: float) -> CommandResult:
    span_path = out.with_suffix(".spans.json")
    env = child_env()
    env["BENCH_SPANS"] = str(span_path)
    env["BENCH_TRACE"] = "1" if trace else "0"
    argv = [sys.executable, str(BENCH_DIR / "child.py"), cmd.subcommand,
            "--config", str(cfg_path), "--out-dir", str(out)]
    rc, wall, rss = launch(argv, env, out.with_suffix(".log"), deadline)
    recorded = None
    if span_path.exists():
        recorded = spans.load(span_path)
        spans.remove(span_path)
    res = CommandResult(cmd, rc, wall, rss, recorded)
    try:
        read_outputs(res, out)
    except (OSError, ValueError, KeyError, IndexError, StopIteration):
        res.checks_ok = False
    return res


# ---------------------------------------------------------------- outputs


def _fields(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.replace(":", " ").split() if "=" in tok)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_outputs(res: CommandResult, out: Path) -> None:
    """Fill in checks, digests, iteration totals and CSV counts from ``out``."""
    cfg = res.command.config
    summary = (out / "summary.txt").read_text().splitlines()
    res.counts["output_files"] = sum(1 for p in out.rglob("*") if p.is_file())
    res.counts["output_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    if res.command.subcommand == "run":
        hp = _fields(next(line for line in summary if line.startswith("hyperparams:")))
        big_t = int(hp["big_t"])
        csvs = sorted(out.glob("metrics_seed*.csv"))
        res.big_t = big_t * len(csvs)
        with open(out / "checks.csv", newline="") as f:
            passed = [row["passed"] for row in csv.DictReader(f)]
        res.checks_ok = (
            len(csvs) == cfg["num_seeds"]
            and all(p == "True" for p in passed)
            and all(_rows(p) == big_t + 1 for p in csvs)
        )
        res.digests = {p.name: _sha256(p) for p in [*csvs, out / "checks.csv"]}
        res.counts.update(run_counts(csvs, cfg["auto"]["epsilon"]))
    else:
        points = [_fields(line) for line in summary if line.startswith("m=")]
        res.big_t = cfg["num_seeds"] * sum(int(pt["big_t"]) for pt in points)
        with open(out / "speedup.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        res.checks_ok = (
            [int(r["m"]) for r in rows] == cfg["m_list"]
            and all(int(r["num_seeds"]) == cfg["num_seeds"] for r in rows)
        )
        res.digests = {"speedup.csv": _sha256(out / "speedup.csv")}
        res.counts.update(sweep_counts(rows, [int(pt["b"]) for pt in points]))


def _rows(path: Path) -> int:
    with open(path) as f:
        return sum(1 for _ in f) - 1


def run_counts(csvs: list[Path], epsilon: float) -> dict[str, float]:
    """Iterations, samples and rounds to the first row with grad_norm_mean <= epsilon.

    A trajectory that never reaches epsilon contributes its last row.
    """
    totals = {"iters_to_eps": 0, "samples_per_agent": 0, "comm_rounds": 0}
    for path in csvs:
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        hit = next((r for r in rows if float(r["grad_norm_mean"]) <= epsilon), rows[-1])
        totals["iters_to_eps"] += int(hit["t"])
        totals["samples_per_agent"] += int(hit["samples_per_agent"])
        totals["comm_rounds"] += int(hit["comm_rounds"])
    return totals


def sweep_counts(rows: list[dict], batch: list[int]) -> dict[str, float]:
    """The same totals from speedup.csv: per-m means over the seeds that reached the target.

    Samples per agent at iteration t are b (t + 1), so t follows from b.
    """
    totals = {"iters_to_eps": 0, "samples_per_agent": 0, "comm_rounds": 0}
    for row, b in zip(rows, batch):
        reached = int(row["seeds_reached"])
        if reached == 0:
            continue
        samples = float(row["mean_samples_per_agent"]) * reached
        totals["samples_per_agent"] += round(samples)
        totals["comm_rounds"] += round(float(row["mean_comm_rounds"]) * reached)
        totals["iters_to_eps"] += round(samples / b) - reached
    return totals


# ---------------------------------------------------------------- metrics


def rep_values(rep: list[CommandResult], scaled: bool = True) -> dict[str, float]:
    """End-to-end values of one repetition, at the reference speed or as measured."""
    wall = sum(r.ref_wall_s if scaled else r.wall_s for r in rep)
    setup = sum(r.ref_setup_s if scaled else r.setup_s for r in rep)
    return {
        "wall_s": wall,
        "setup_s": setup,
        "iters_per_s": sum(r.big_t for r in rep) / (wall - setup),
        "peak_rss_mb": max(r.rss_mb for r in rep),
    }


def end_to_end(reps: list[list[CommandResult]], ok_frac: float) -> dict[str, float]:
    """Run-level metrics: each command's median over repetitions, summed over commands.

    Times are at the reference speed (see reference.py). Peak RSS is the
    median over repetitions of the largest command.
    """
    per_command = list(zip(*reps))
    med = statistics.median
    compute = sum(med(r.ref_wall_s - r.ref_setup_s for r in runs) for runs in per_command)
    return {
        "wall_s": sum(med(r.ref_wall_s for r in runs) for runs in per_command),
        "setup_s": sum(med(r.ref_setup_s for r in runs) for runs in per_command),
        "iters_per_s": sum(runs[0].big_t for runs in per_command) / compute,
        "peak_rss_mb": med(max(r.rss_mb for r in rep) for rep in reps),
        "ok_frac": ok_frac,
    }


CHECK_FUNCTIONS = (
    "analysis.verify_consensus_bound", "analysis.verify_descent",
    "analysis.stationarity_summary",
)


def per_layer(rep: list[CommandResult]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    Times are at the reference speed of the workload's kind (see reference.py),
    the set-up calls included, so that they add up to the traced wall time.
    """
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    root_s = startup_s = 0.0
    for r in rep:
        stats, roots = spans.summarize(r.spans)
        root_s += roots * r.speed
        for name, st in stats.items():
            calls[name] = calls.get(name, 0) + st.calls
            busy[name] = busy.get(name, 0.0) + st.busy_s * r.speed
            self_s[name] = self_s.get(name, 0.0) + st.self_s * r.speed
        for name, n in r.spans.counters.items():
            counters[name] = counters.get(name, 0) + n
        main_id = r.spans.names.index("cli.main")
        first = min(s for f, s in zip(r.spans.fid, r.spans.start) if f == main_id)
        startup_s += (first - r.spans.extra["t0"]) * r.speed

    values: dict[str, float] = {}
    for name in calls:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.busy_s"] = busy[name]
        values[f"{name}.self_s"] = self_s[name]
    for layer in spans.LAYERS:
        values[f"{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.startswith(layer + ".")
        )
    rounds = counters.get("gossip.rounds", 0)
    gossip_s = busy.get("gossip.acc_gossip", 0.0) + busy.get("gossip.plain_gossip", 0.0)
    values["gossip.rounds"] = rounds
    values["gossip.us_per_round"] = 1e6 * gossip_s / rounds if rounds else 0.0
    values["analysis.checks.busy_s"] = sum(busy.get(n, 0.0) for n in CHECK_FUNCTIONS)
    for key in ("comm_rounds", "samples_per_agent", "iters_to_eps"):
        values[f"optimizers.{key}"] = sum(r.counts.get(key, 0) for r in rep)
    for key in ("output_bytes", "output_files"):
        values[f"harness.{key}"] = sum(r.counts.get(key, 0) for r in rep)
    values["cli.startup_s"] = startup_s
    wall = sum(r.wall_s * r.speed for r in rep)
    values["trace.wall_s"] = wall
    values["trace.outside_s"] = wall - root_s
    return values


def mark_failures(reps: list[list[CommandResult]]) -> None:
    """Count failed trajectories: exit code, built-in checks, CSV bytes vs. the first repetition."""
    for rep in reps:
        for ref, r in zip(reps[0], rep):
            n = r.command.trajectories
            if r.rc != 0 or not r.checks_ok or set(r.digests) != set(ref.digests):
                r.failed = n
                continue
            differ = [name for name, d in r.digests.items() if d != ref.digests[name]]
            if any(not name.startswith("metrics_seed") for name in differ):
                r.failed = n
            else:
                r.failed = len(differ)


def combined_digest(rep: list[CommandResult]) -> str:
    h = hashlib.sha256()
    for i, r in enumerate(rep):
        for name in sorted(r.digests):
            h.update(f"{i}/{name}:{r.digests[name]}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------- main


def machine_facts(env: dict) -> dict:
    """Hardware facts from this process, software facts from a child with the child env."""
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "facts.py")], env=env,
                          capture_output=True, text=True, timeout=60, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import dnsgd from {SRC}:\n{proc.stderr.strip()}")
    facts = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as f:
            facts["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                "unknown",
            )
    except OSError:
        facts["cpu"] = "unknown"
    facts.update(json.loads(proc.stdout))
    facts["blas_threads_env"] = CHILD_ENV["OPENBLAS_NUM_THREADS"]
    return facts


def describe(name: str, unit: str, value: float, per_rep: list[float]) -> str:
    line = f"{name}: {value:.6g} {unit}"
    if per_rep:
        line += (f" (repetitions: n={len(per_rep)}, min {min(per_rep):.6g}, "
                 f"median {statistics.median(per_rep):.6g}, max {max(per_rep):.6g})")
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="three iterations per trajectory (smoke tests)")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S

    if not (SRC / "dnsgd" / "cli.py").is_file() or not SPEC_PATH.is_file():
        print(f"error: run from a dnsgd checkout; {SRC / 'dnsgd'} or {SPEC_PATH} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    try:
        facts = machine_facts(child_env())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    kinds = sorted({SETUP_KIND, WORKLOADS[args.workload]})
    for kind in kinds:  # warm-up: numpy's lazy set-up is not part of a reference time
        reference.work(kind)

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        commands = workload_commands(args.workload, args.seed, tiny=args.tiny)
        cfg_paths = []
        for i, cmd in enumerate(commands):
            cfg_paths.append(work / f"cmd{i}.json")
            cfg_paths[-1].write_text(json.dumps(cmd.config, indent=2))

        def repetition(n: int, trace: bool) -> list[CommandResult]:
            rep = []
            before = {kind: reference.work(kind) for kind in kinds}
            for i, cmd in enumerate(commands):
                out = work / f"rep{n:03d}-cmd{i}"
                res = run_command(cmd, cfg_paths[i], out, trace, deadline)
                shutil.rmtree(out, ignore_errors=True)
                after = {kind: reference.work(kind) for kind in reversed(kinds)}
                speed = {k: reference.REF_SECONDS / math.sqrt(before[k] * after[k])
                         for k in kinds}
                res.setup_speed = speed[SETUP_KIND]
                res.speed = speed[WORKLOADS[args.workload]]
                rep.append(res)
                before = after
            return rep

        # Repeat while the next repetition, at the median length so far, still
        # ends within --seconds of the measurement start.
        plain: list[list[CommandResult]] = []
        traced: list[list[CommandResult]] = []
        lengths = []
        measure_start = time.perf_counter()
        while True:
            rep_start = time.perf_counter()
            plain.append(repetition(len(plain) + len(traced), trace=False))
            if args.trace:
                traced.append(repetition(len(plain) + len(traced), trace=True))
            now = time.perf_counter()
            lengths.append(now - rep_start)
            if now - started >= RUN_DEADLINE_S or (
                len(plain) >= MIN_REPS
                and now - measure_start + statistics.median(lengths) > args.seconds
            ):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    all_reps = plain + traced
    mark_failures(all_reps)
    attempted = sum(r.command.trajectories for rep in all_reps for r in rep)
    failed = sum(r.failed for rep in all_reps for r in rep)

    print(f"workload: {args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions: {len(plain)} untraced, {len(traced)} traced, "
          f"{len(commands)} command(s) each")
    print("machine: " + json.dumps(facts, sort_keys=True))
    print(f"csv_sha256 (information only): {combined_digest(plain[0])}")
    print(f"failed_frac: {failed / attempted:.6g} ({failed} of {attempted} trajectories)")

    rows = [rep_values(rep) for rep in plain]
    e2e = end_to_end(plain, 1.0 - failed / attempted)
    for m in spec["end_to_end"]:
        print(describe(m["name"], m["unit"], e2e[m["name"]],
                       [row[m["name"]] for row in rows] if m["name"] in rows[0] else []))
    measured = [rep_values(rep, scaled=False) for rep in plain]
    for label, speeds in (("set-up", [r.setup_speed for rep in plain for r in rep]),
                          ("rest", [r.speed for rep in plain for r in rep])):
        print(f"speed factor, {label}: median {statistics.median(speeds):.4g} "
              f"(min {min(speeds):.4g}, max {max(speeds):.4g}) reference s per measured s")
    print("as measured, per repetition: " + ", ".join(
        f"{key} median {statistics.median(v[key] for v in measured):.6g}"
        for key in ("wall_s", "setup_s", "iters_per_s")))
    if args.trace:
        complete = [rep for rep in traced if all(r.spans is not None for r in rep)]
        if not complete:
            print("error: no traced repetition wrote its spans", file=sys.stderr)
            return 1
        ranked = sorted((per_layer(rep) for rep in complete), key=lambda v: v["trace.wall_s"])
        values = ranked[(len(ranked) - 1) // 2]
        # Untraced and traced repetitions run back to back, so their pairwise
        # difference cancels the machine's slow drift in speed.
        pairs = [(sum(r.ref_wall_s for r in a), sum(r.ref_wall_s for r in b))
                 for a, b in zip(plain, traced)]
        values["trace.overhead_s"] = statistics.median(b - a for a, b in pairs)
        values["trace.overhead_frac"] = statistics.median(b / a - 1.0 for a, b in pairs)
        layer_self = sum(values[f"{layer}.self_s"] for layer in spans.LAYERS)
        print(f"accounting (median traced repetition): layer self times {layer_self:.6g} s "
              f"+ outside spans {values['trace.outside_s']:.6g} s "
              f"= traced wall {values['trace.wall_s']:.6g} s")
        chosen = spec["per_layer"]
    else:
        values = e2e
        chosen = spec["end_to_end"]

    metrics = {}
    for m in chosen:
        if args.trace:
            print(f"{m['name']}: {values[m['name']]:.6g} {m['unit']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
