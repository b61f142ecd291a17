"""fr3sim benchmark runner.

    python3 perfbench/run.py --workload sma-hex|inh-nf|umi-sns-mix|all \
        --seed N --seconds S --trace 0|1

README.md describes the workloads, the metrics and how a run is measured.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

from tracing import LAYER_METRICS
from workloads import WORKLOADS, sim_seed

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
END_TO_END = {"links_per_s": "1/s", "cpu_ms_per_link": "ms", "setup_s": "s",
              "peak_rss_mb": "MB"}
SETUP_SAMPLES = 4
CHILD_TIMEOUT_S = 150
BLAS_THREADS = "1"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _child_env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _spawn(args, env):
    """Run iteration.py with ``args``; returns (exit code, its JSON record
    or None, wall seconds, stderr).  The child gets its own session so a
    timeout kills its pool workers too."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "iteration.py"), *args,
         "--t-spawn", repr(t_spawn)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {CHILD_TIMEOUT_S} s"
    wall = time.monotonic() - t_spawn
    lines = out.strip().splitlines()
    try:
        rec = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        rec = None
    return proc.returncode, rec, wall, err


def _git_sha():
    """HEAD of the checkout, or "unknown" when it is not a git repository
    (git must not pick up a repository above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def _setup(workload, env, work):
    """Set-up alone in fresh processes: one untimed, which fills the
    bytecode cache and proves fr3sim imports from this checkout, then
    SETUP_SAMPLES timed.  Returns (environment record, setup_s samples), or
    None when set-up fails."""
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        code, rec, _, err = _spawn(["--workload", workload, "--sim-seed", "0",
                                    "--out", str(work / "setup"),
                                    "--setup-only"], env)
        if code != 0 or rec is None:
            print(f"set-up failed:\n{err.strip()}", file=sys.stderr)
            return None
        samples.append(rec["setup_s"])
    return rec["env"], samples[1:]


def _measure(workload, seed, seconds, trace, env, work):
    """Closed loop of fresh-process runs, all on the same inputs; returns
    their records."""
    step = 2 if trace else 1
    seed_i = sim_seed(workload, seed)
    start = time.monotonic()
    runs, walls = [], []
    while True:
        i = len(runs)
        traced = bool(trace) and i % 2 == 1
        args = ["--workload", workload, "--sim-seed", str(seed_i),
                "--out", str(work / f"run{i}"), "--trace", str(int(traced))]
        code, rec, wall, err = _spawn(args, env)
        if rec is None:
            rec = {"n_links": WORKLOADS[workload]["overrides"]["n_ues"],
                   "sim_seed": seed_i, "run_s": wall, "cpu_s": 0.0,
                   "peak_rss_mb": 0.0, "setup_s": wall, "workers": 1,
                   "error": err.strip()[-2000:] or f"exit code {code}",
                   "problems": []}
        rec["traced"] = traced
        rec["ok"] = code == 0 and not rec.get("error") \
            and not rec.get("problems")
        runs.append(rec)
        walls.append(wall)
        # stop before a run (a pair when tracing) that would end past the
        # measuring time
        next_end = time.monotonic() - start + step * statistics.median(walls)
        if len(runs) % step == 0 and next_end > seconds:
            return runs


def _median(values):
    return statistics.median(values) if values else 0.0


def _report(workload, seed, seconds, trace, runs, env_rec, setup_samples):
    """Print the human-readable lines and return the JSON result."""
    attempted = sum(r["n_links"] for r in runs)
    failed = sum(r["n_links"] for r in runs if not r["ok"])
    plain = [r for r in runs if not r["traced"]]
    usable = [r for r in plain if r["ok"]] or plain
    print(f"# fr3sim benchmark: workload={workload} seed={seed} "
          f"seconds={seconds:g} trace={trace}")
    print(f"runs: {len(plain)} untraced, {len(runs) - len(plain)} traced; "
          f"{attempted} links")
    for r in runs:
        if not r["ok"]:
            why = r.get("error") or "; ".join(r["problems"][:5])
            print(f"FAILED run sim_seed={r['sim_seed']}: {why}")
    correct = failed == 0

    shas = {r["links_sha256"] for r in runs if "links_sha256" in r}
    for sha in sorted(shas):
        print(f"links.csv sha256 workload={workload} "
              f"sim_seed={runs[0]['sim_seed']} n_ues={runs[0]['n_links']} "
              f"{sha}")
    if len(shas) > 1:
        print("FAILED: runs on the same inputs wrote different links.csv")
        correct = False

    per_run = {
        "links_per_s": [r["n_links"] / r["run_s"] for r in usable],
        "cpu_ms_per_link": [1e3 * r["cpu_s"] / r["n_links"] for r in usable],
        "setup_s": setup_samples + [r["setup_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in usable],
    }
    e2e = {}
    for name, unit in END_TO_END.items():
        vals = per_run[name]
        e2e[name] = _median(vals)
        print(f"{name:<16} {e2e[name]:12.6g} {unit:<4} median of {len(vals)}"
              f" (min {min(vals):.6g}, max {max(vals):.6g})")
    print(f"{'fail_frac':<16} {failed / attempted:12.6g} {'-':<4} "
          f"{failed} of {attempted} links failed")

    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    if trace:
        traced = [r for r in runs if r["traced"] and "layers" in r]
        layers = {}
        for name in LAYER_METRICS:
            if name != "trace.overhead_frac":
                layers[name] = _median([r["layers"][name] for r in traced])
        run_t = _median([r["run_s"] for r in traced])
        run_u = _median([r["run_s"] for r in usable])
        layers["trace.overhead_frac"] = run_t / run_u - 1.0 if run_u else 0.0
        serial = all(r["workers"] <= 1 for r in runs)
        print(f"per-layer metrics, median of {len(traced)} traced runs "
              f"(untraced run {run_u:.4g} s, traced {run_t:.4g} s):")
        for name, unit in LAYER_METRICS.items():
            note = ""
            if serial and name.startswith(("harness.pool", "harness.worker",
                                           "harness.parallel")):
                note = "  n/a: serial run, reported as 0"
            print(f"  {name:<30} {layers[name]:14.6g} {unit}{note}")
        stages = {k: layers[k] for k in LAYER_METRICS
                  if k.endswith("_s") and k.split(".")[0] not in
                  ("setup", "harness", "trace")
                  and k != "coefficients.synth_self_s"}
        top = max(stages, key=stages.get)
        share = stages[top] / run_t if run_t else 0.0
        print(f"largest stage: {top} = {stages[top]:.4g} s, {share:.1%} of "
              f"harness.run_s (stage times add up over pool workers)")
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k]}
                   for k, v in layers.items()}

    env = dict(env_rec, git_sha=_git_sha(), nproc=os.cpu_count(),
               blas_threads=int(BLAS_THREADS),
               workers=runs[0].get("workers"))
    print("env " + json.dumps(env, sort_keys=True))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "fr3sim" / "__init__.py").is_file():
        print(f"no fr3sim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    env = _child_env()
    try:
        for name in names:
            setup = _setup(name, env, work)
            if setup is None:
                return 2
            runs = _measure(name, args.seed, args.seconds, args.trace, env,
                            work)
            result = _report(name, args.seed, args.seconds, args.trace, runs,
                             *setup)
            print(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
