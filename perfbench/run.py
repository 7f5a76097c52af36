"""shrinkpred benchmark: CLI workloads end to end, and a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload desk_mixed --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload's CLI commands as fresh child processes,
``python -m shrinkpred`` with PYTHONPATH=<checkout>/src, so each checkout is
measured from its own source.  Whole iterations repeat until --seconds have
passed (at least one), then a few fresh set-up probes run.  It reports the
median wall time, CPU time and peak RSS of an iteration and the median
set-up time.

``--trace 1`` runs the same commands inside this process through
``cli.main``, in pairs of one untraced and one traced iteration (every
layer's public functions wrapped, see spans.py) until --seconds have
passed, and reports per-layer metrics from the last traced iteration and
the tracing overhead from the pairs' medians.  A layer the
workload never calls is measured on a small fixed risk-compare probe
instead, so that every metric is a measurement.

Every output is checked (checks.py) and compared byte for byte with other
runs of the same source and seed.  The last stdout line is the JSON result;
a fuller record goes to perfbench/out/.  The error rate is failed/attempted
in that result: one attempt is one iteration, in-process run or probe, and
a traced run whose bytes differ from its untraced partner counts as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import checks
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
DESK = "configs/as1_desk.json"
CASE2 = "configs/case2_small_l.json"

# Workloads, by the config their set-up probe loads (why each exists: BENCHMARK.json).
SETUP_CONFIG = {"desk_mixed": DESK, "case2_plugin": CASE2, "density_batch": DESK}

DENSITY_POINTS = 100_000
DENSITY_IS_SAMPLES = 500_000
CHECK_IS_SAMPLES = 200_000
DENSITY_ALPHA = 0.0
SETUP_PROBES = 5
RUN_BUDGET_S = 170.0
SETUP_RESERVE_S = 15.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclasses.dataclass
class Plan:
    """One iteration of a workload: CLI argv lists, result files and their check."""

    commands: list[list[str]]
    out_dirs: list[Path]
    outputs: list[Path]
    check: Callable[[], list[str]]


def read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_json(path: Path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def risk_plan(config: str, out: Path, seed: int) -> Plan:
    cfg = read_json(ROOT / config)
    csv_path = out / "risk_compare.csv"
    cmd = ["risk-compare", "--config", str(ROOT / config), "--out", str(out), "--seed", str(seed)]
    return Plan([cmd], [out], [csv_path], lambda: checks.check_risk_csv(csv_path, cfg))


def density_inputs(inputs: Path, seed: int) -> dict:
    """Observation and evaluation points for density_batch, drawn from the seed."""
    n, k, m, _ = checks.design_dims(read_json(ROOT / DESK)["design"])
    l = min(m, k)
    rng_obs, rng_pts = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    obs = {"v": (2.0 * rng_obs.standard_normal(l)).tolist(),
           "v_star": rng_obs.standard_normal(k - l).tolist(),
           "s": float(rng_obs.chisquare(n - k))}
    points = 2.5 * rng_pts.standard_normal((DENSITY_POINTS, m))
    inputs.mkdir(parents=True, exist_ok=True)
    write_json(inputs / "observation.json", obs)
    np.savetxt(inputs / "points.csv", points, delimiter=",", fmt="%.17g")
    return {"obs": obs, "points": points}


def density_plan(inputs: Path, data: dict, out: Path, seed: int) -> Plan:
    canon = out / "canonicalize"
    problem_path = canon / "problem.json"
    commands = [["canonicalize", "--config", str(ROOT / DESK), "--out", str(canon), "--seed", str(seed)]]
    out_dirs, outputs, configs, csvs = [canon], [problem_path, canon / "canonicalize_report.json"], {}, {}
    for kind in ("best_invariant", "shrinkage_bayes"):
        cfg_path = out / f"{kind}.json"
        write_json(cfg_path, {
            "seed": seed,
            "prior": read_json(ROOT / DESK)["prior"],
            "density": {
                "problem": str(problem_path),
                "observation": str(inputs / "observation.json"),
                "type": kind,
                "alpha": DENSITY_ALPHA,
                "points": str(inputs / "points.csv"),
                "is_samples": DENSITY_IS_SAMPLES,
            },
        })
        configs[kind] = cfg_path
        commands.append(["density-eval", "--config", str(cfg_path), "--out", str(out / kind),
                         "--seed", str(seed)])
        out_dirs.append(out / kind)
        csvs[kind] = out / kind / "density_eval.csv"
        outputs.append(csvs[kind])

    def check() -> list[str]:
        report = read_json(canon / "canonicalize_report.json")
        if not report.get("all_pass"):
            return ["canonicalize: invariant report failed"]
        problem = read_json(problem_path)
        obs, points = data["obs"], data["points"]
        problems = checks.check_best_invariant(
            csvs["best_invariant"], points, problem, obs, DENSITY_ALPHA)
        # child 2 of the seed's sequence; children 0 and 1 drew the inputs
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[2])
        problems += checks.check_shrinkage(
            csvs["shrinkage_bayes"], points, problem,
            prior_hyperparameters(problem, configs["shrinkage_bayes"]), obs, DENSITY_ALPHA,
            DENSITY_IS_SAMPLES, CHECK_IS_SAMPLES, rng)
        return problems

    return Plan(commands, out_dirs, outputs, check)


def prior_hyperparameters(problem_doc: dict, cfg_path: Path) -> dict:
    """The prior's c, a and gamma_prior as the program builds them from the config."""
    from shrinkpred import canonical, cli

    prior = cli.build_prior(cli.load_config(str(cfg_path)), canonical.problem_from_dict(problem_doc))
    return {"c": prior.c, "a": prior.a, "gamma_prior": prior.gamma_prior}


class Workload:
    """A named workload: fixed inputs for one seed, and a plan per output directory."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.density = density_inputs(work / "inputs", seed) if name == "density_batch" else None

    def plan(self, label: str) -> Plan:
        out = self.work / label
        if self.name == "density_batch":
            return density_plan(self.work / "inputs", self.density, out, self.seed)
        return risk_plan(SETUP_CONFIG[self.name], out, self.seed)


# ---------------------------------------------------------------------------
# Determinism record: output digests per (source tree, workload, seed)
# ---------------------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def output_digests(plan: Plan, out: Path) -> dict[str, str]:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in plan.outputs}


class DigestCache:
    """Output digests of earlier runs of the same source and seed, kept under out/."""

    def __init__(self, key: str):
        self.path = OUT / "digests" / f"{key}.json"
        self.known = read_json(self.path) if self.path.exists() else None

    def compare(self, digests: dict[str, str]) -> list[str]:
        if self.known is None:
            self.known = digests
            write_json(self.path, digests)
            return []
        if digests != self.known:
            changed = sorted(k for k in digests if digests[k] != self.known.get(k))
            return [f"output bytes differ from an earlier run of this source and seed: {changed}"]
        return []


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


def run_child(argv: list[str], log: Path, deadline: float) -> Sample:
    """Run argv from the checkout root with this source tree on PYTHONPATH.

    Wall time spans spawn to exit; CPU time and peak RSS come from the
    child's rusage.  A child still running at the deadline is killed.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
    killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def setup_probes(config: str, seed: int, work: Path, deadline: float, record: dict) -> list[dict]:
    """Fresh-process import + load_config + build_problem + build_prior, SETUP_PROBES times."""
    probes = []
    for i in range(SETUP_PROBES):
        log = work / f"setup-{i}.log"
        sample = run_child([sys.executable, str(BENCH / "setup_probe.py"), str(ROOT / config), str(seed)],
                           log, deadline)
        probe = {"wall_s": sample.wall_s, "code": sample.code}
        if sample.code == 0:
            probe.update(json.loads(log.read_text().splitlines()[-1]))
        else:
            record["problems"].append(f"setup probe {i} exited {sample.code}")
        probes.append(probe)
    return probes


def clean(plan: Plan):
    for d in plan.out_dirs:
        shutil.rmtree(d, ignore_errors=True)


def checked(plan: Plan, out: Path, cache: DigestCache) -> tuple[list[str], dict]:
    """Output checks plus the determinism comparison; returns (problems, digests)."""
    try:
        problems = plan.check()
        digests = output_digests(plan, out)
    except (OSError, KeyError, ValueError) as exc:
        return [f"output check could not run: {exc!r}"], {}
    return problems + cache.compare(digests), digests


def measure_end_to_end(wl: Workload, seconds: int, deadline: float, cache: DigestCache,
                       record: dict) -> dict:
    plan = wl.plan("run")
    out = wl.work / "run"
    iterations = []
    begin = time.perf_counter()
    while True:
        clean(plan)
        out.mkdir(parents=True, exist_ok=True)
        samples, problems = [], []
        for j, cmd in enumerate(plan.commands):
            sample = run_child([sys.executable, "-m", "shrinkpred", *cmd],
                               wl.work / f"cmd-{len(iterations)}-{j}.log", deadline)
            samples.append(sample)
            if sample.code != 0:
                problems.append(f"{cmd[0]} exited {sample.code}")
                break
        if not problems:
            problems, _ = checked(plan, out, cache)
        iterations.append({
            "wall_s": sum(s.wall_s for s in samples),
            "cpu_s": sum(s.cpu_s for s in samples),
            "peak_rss_mb": max(s.rss_mb for s in samples),
            "commands": [dataclasses.asdict(s) for s in samples],
            "problems": problems,
        })
        record["problems"] += problems
        now = time.perf_counter()
        last = iterations[-1]["wall_s"]
        if now - begin >= seconds or now + last + SETUP_RESERVE_S > deadline:
            break
    probes = setup_probes(SETUP_CONFIG[wl.name], wl.seed, wl.work, deadline, record)
    record["iterations"], record["setup_probes"] = iterations, probes
    record["attempted"] = len(iterations) + len(probes)
    record["failed"] = sum(bool(it["problems"]) for it in iterations) + sum(p["code"] != 0 for p in probes)
    wall = statistics.median(it["wall_s"] for it in iterations)
    cpu = statistics.median(it["cpu_s"] for it in iterations)
    record["environment"]["cpu_per_wall"] = cpu / wall
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(p["wall_s"] for p in probes), "s"),
        "cpu_s": (cpu, "s"),
        "peak_rss_mb": (statistics.median(it["peak_rss_mb"] for it in iterations), "MB"),
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

LAYER_UNITS = {
    "canonical.replication_rng_us": "us",
    "canonical.simulate_observation_self_us": "us",
    "canonical.draws_per_scored_rep": "count",
    "canonical.canonicalize_ms": "ms",
    "predictive.plugin_estimators_us": "us",
    "predictive.best_invariant_build_us": "us",
    "predictive.shrinkage_build_self_us": "us",
    "predictive.normalize_density_us": "us",
    "predictive.kernel_ns_per_point": "ns",
    "predictive.ess_fraction_min": "fraction",
    "predictive.ess_fraction_median": "fraction",
    "predictive.is_draws_per_outer_rep": "count",
    "risk.d1_loss_us": "us",
    "risk.alpha1_us_per_rep": "us",
    "risk.alpha1_loop_self_us": "us",
    "risk.inner_divergence_us": "us",
    "risk.nested_us_per_outer_rep.best_invariant": "us",
    "risk.nested_us_per_outer_rep.shrinkage_bayes": "us",
    "risk.kept_fraction": "fraction",
    "risk.threads2_speedup": "ratio",
    "bounds.nu_limits_us": "us",
    "cli.import_s": "s",
    "cli.setup_ms": "ms",
    "cli.self_s": "s",
    "trace.overhead_frac": "fraction",
}


def import_layers() -> dict:
    from shrinkpred import bounds, canonical, cli, predictive, risk

    return {"bounds": bounds, "canonical": canonical, "cli": cli,
            "predictive": predictive, "risk": risk}


def run_plan(plan: Plan, log: Path, layers: dict, tracer: spans.Tracer | None) -> tuple[float, list[str]]:
    """Run a plan's commands through cli.main in this process, traced when a tracer is given.

    Returns (seconds, problems); the seconds cover the cli.main calls only.
    """
    clean(plan)
    cli = layers["cli"]
    saved = spans.install(tracer, layers) if tracer is not None else []
    problems, total = [], 0.0
    try:
        with open(log, "w") as fh, contextlib.redirect_stdout(fh):
            for cmd in plan.commands:
                t0 = time.perf_counter()
                try:
                    code = cli.main(cmd) if tracer is None else tracer.span(spans.CLI_MAIN, cli.main, cmd)
                except Exception:  # a crash is one failed run, recorded with its traceback
                    traceback.print_exc(file=fh)
                    code = -1
                total += time.perf_counter() - t0
                if code != 0:
                    problems.append(f"{cmd[0]} returned {code} in process")
                    break
    finally:
        spans.uninstall(saved)
    return total, problems


def probe_plan(work: Path, seed: int) -> Plan:
    """A small as1_desk risk-compare that reaches every layer, for layers a workload skips."""
    cfg = read_json(ROOT / DESK)
    cfg.update(alphas=[1.0, 0.0], reps=1000, reps_outer=100, n_mc_inner=200)
    cfg["grid"] = {"theta_directions": cfg["grid"]["theta_directions"][:1],
                   "theta_norms": [2.0], "sigma2": [1.0]}
    write_json(work / "probe.json", cfg)
    csv_path = work / "probe" / "risk_compare.csv"
    cmd = ["risk-compare", "--config", str(work / "probe.json"), "--out", str(work / "probe"),
           "--seed", str(seed)]
    return Plan([cmd], [work / "probe"], [csv_path], lambda: checks.check_risk_csv(csv_path, cfg))


def threads2_speedup(layers: dict, seed: int) -> tuple[float | None, list[str]]:
    """risk_d1_mc time at n_threads=1 over n_threads=2 on the first case2 grid point."""
    cli, risk = layers["cli"], layers["risk"]
    if "n_threads" not in inspect.signature(risk.risk_d1_mc).parameters:
        return None, []
    cfg = cli.load_config(str(ROOT / CASE2))
    problem, _, _ = cli.build_problem(cfg)
    prior = cli.build_prior(cfg, problem)
    params = layers["canonical"].CanonicalParams(
        theta=np.zeros(problem.l), mu=np.zeros(problem.k - problem.l), eta=1.0)

    def procedure(obs):
        return layers["predictive"].plugin_bayes_estimators(problem, prior, obs)

    times, results = {}, {}
    for threads in (1, 2):
        t0 = time.perf_counter()
        results[threads] = risk.risk_d1_mc(procedure, problem, params, cfg.reps, seed, n_threads=threads)
        times[threads] = time.perf_counter() - t0
    problems = [] if results[1] == results[2] else ["risk_d1_mc differs between 1 and 2 threads"]
    return times[1] / times[2], problems


def measure_traced(wl: Workload, seconds: int, deadline: float, cache: DigestCache,
                   record: dict) -> dict:
    """Untraced and traced in-process iterations in pairs, until --seconds have passed.

    The probe runs first, which also warms lazy imports before the first
    timed pair.
    """
    layers = import_layers()
    probe_tracer = spans.Tracer()
    probe = probe_plan(wl.work, wl.seed)
    _, problems = run_plan(probe, wl.work / "probe.log", layers, probe_tracer)
    if not problems:
        try:
            problems = [f"probe: {p}" for p in probe.check()]
        except (OSError, KeyError, ValueError) as exc:
            problems = [f"probe output check could not run: {exc!r}"]
    record["problems"] += problems
    pairs, failed = [], bool(problems)
    begin = time.perf_counter()
    while True:
        pair, digests = {}, {}
        # alternate which side runs first, so warm-up effects cancel in the medians
        for mode in ("untraced", "traced")[::1 if len(pairs) % 2 == 0 else -1]:
            label = f"{mode}{len(pairs)}"
            plan = wl.plan(label)
            tracer = None
            if mode == "traced":
                tracer = last_traced = spans.Tracer()
            pair[mode + "_s"], problems = run_plan(plan, wl.work / f"{label}.log", layers, tracer)
            if not problems:
                problems, digests[mode] = checked(plan, wl.work / label, cache)
            failed += bool(problems)
            record["problems"] += problems
        if len(digests) == 2 and digests["traced"] != digests["untraced"]:
            record["problems"].append("traced output bytes differ from the untraced run")
            failed += 1
        pairs.append(pair)
        now = time.perf_counter()
        if now - begin >= seconds or now + sum(pair.values()) + SETUP_RESERVE_S > deadline:
            break

    speedup, p_threads = threads2_speedup(layers, wl.seed)
    record["problems"] += p_threads
    probes = setup_probes(SETUP_CONFIG[wl.name], wl.seed, wl.work, deadline, record)

    own, fallback = spans.layer_metrics(last_traced), spans.layer_metrics(probe_tracer)
    values, sources = {}, {}
    for name, (value, basis) in own.items():
        values[name], sources[name] = (value, "workload") if basis else (fallback[name][0], "probe")
    values["risk.threads2_speedup"] = 1.0 if speedup is None else speedup
    sources["risk.threads2_speedup"] = "no n_threads parameter" if speedup is None else "probe"
    ok = [p for p in probes if p["code"] == 0]
    values["cli.import_s"] = statistics.median(p["import_s"] for p in ok) if ok else 0.0
    values["cli.setup_ms"] = statistics.median(p["setup_ms"] for p in ok) if ok else 0.0
    values["trace.overhead_frac"] = (statistics.median(p["traced_s"] for p in pairs)
                                     / statistics.median(p["untraced_s"] for p in pairs) - 1.0)
    sources.update({"cli.import_s": "setup probes", "cli.setup_ms": "setup probes",
                    "trace.overhead_frac": "traced vs untraced in process"})

    np.savez(OUT / f"spans-{wl.name}.npz", **last_traced.arrays())
    record.update(
        pairs=pairs, metric_sources=sources, setup_probes=probes,
        kernel_points=last_traced.kernel_points, span_count=len(last_traced.start),
        # one attempt each: the fallback probe, every in-process run, the thread
        # comparison when it runs, and every set-up probe
        attempted=1 + 2 * len(pairs) + (speedup is not None) + len(probes),
        failed=failed + bool(p_threads) + sum(p["code"] != 0 for p in probes),
    )
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def git_commit() -> str | None:
    """HEAD of the checkout; None when it is not a git repository of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "seed": seed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_CONFIG))
    parser.add_argument("--seed", type=int, default=None, help="default: the config's seed")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "shrinkpred" / "__main__.py", ROOT / DESK, ROOT / CASE2) if not p.is_file()]
    if missing:
        print(f"not a shrinkpred checkout, missing: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    seed = read_json(ROOT / SETUP_CONFIG[args.workload])["seed"] if args.seed is None else args.seed
    if seed < 0 or args.seconds < 1:
        print("--seed must be nonnegative and --seconds positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    deadline = time.perf_counter() + RUN_BUDGET_S
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(seed), "problems": []}
    cache = DigestCache(f"{record['environment']['source_sha256'][:16]}-{args.workload}-{seed}")
    try:
        wl = Workload(args.workload, seed, work)
        if args.trace:
            metrics = measure_traced(wl, args.seconds, deadline, cache, record)
        else:
            metrics = measure_end_to_end(wl, args.seconds, deadline, cache, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": record["failed"] == 0 and not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record["result"] = result
    record["error_rate"] = record["failed"] / record["attempted"]
    report = OUT / f"report-{args.workload}-trace{args.trace}.json"
    write_json(report, record)
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"report: {report.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
