"""One measured fr3sim run in a fresh process.

    python3 perfbench/iteration.py --workload inh-nf --sim-seed 1 \
        --out DIR [--n-ues N] [--trace 1] [--t-spawn T] [--setup-only]

Sets up (imports fr3sim, loads the parameter tables and the config), runs
``fr3sim.harness.run`` once, checks the outputs, deletes them and prints
one JSON record as the last line of standard output.  ``--t-spawn`` is the
parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` covers interpreter start-up as well.  With ``--trace 1`` the
run is traced (see tracing.py) and the record carries per-layer metrics.
The record's ``cpu_s`` and ``peak_rss_mb`` include the pool workers, which
the harness joins before it returns.
"""

import argparse
import hashlib
import json
import multiprocessing
import pathlib
import platform
import resource
import shutil
import sys
import time
import traceback

from checks import check_run, cir_shape
from tracing import Tracer, count_warnings, install, layer_metrics
from workloads import WORKLOADS


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--sim-seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-ues", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t-spawn", type=float)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "start_method": multiprocessing.get_start_method()}


def main(argv=None):
    args = _parse(argv)
    t_spawn = args.t_spawn if args.t_spawn is not None else time.monotonic()
    t0 = time.perf_counter()
    from fr3sim import harness
    from fr3sim.scenario import load_parameter_tables
    t1 = time.perf_counter()
    out = pathlib.Path(args.out)
    wl = WORKLOADS[args.workload]
    overrides = dict(wl["overrides"], seed=args.sim_seed, out_dir=str(out))
    if args.n_ues is not None:
        overrides["n_ues"] = args.n_ues
    reg = load_parameter_tables()
    cfg = harness.load_config(preset=wl["preset"], overrides=overrides)
    t2 = time.perf_counter()
    rec = {"setup_s": time.monotonic() - t_spawn, "import_s": t1 - t0,
           "load_s": t2 - t1, "n_links": cfg.n_ues, "sim_seed": cfg.seed,
           "workers": cfg.workers}
    if args.setup_only:
        rec["env"] = environment()
        print(json.dumps(rec))
        return 0

    tracer = Tracer(out / "trace")
    if args.trace:
        (out / "trace").mkdir(parents=True)
        install(tracer)
    count_warnings(tracer.counts)
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t3 = time.perf_counter()
    try:
        harness.run(cfg, registry=reg)
        error = None
    except Exception:
        error = traceback.format_exc(limit=3)
    t4 = time.perf_counter()
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    rec["run_s"] = t4 - t3
    rec["cpu_s"] = sum(getattr(b, f) - getattr(a, f)
                       for a, b in ((self0, self1), (kids0, kids1))
                       for f in ("ru_utime", "ru_stime"))
    rec["peak_rss_mb"] = max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0
    rec["error"] = error
    rec["problems"] = []
    if error is None:
        shape = cir_shape(cfg) if cfg.emit_cir else None
        rec["problems"] = check_run(out, cfg.n_ues, shape)
        rec["links_sha256"] = hashlib.sha256(
            (out / "links.csv").read_bytes()).hexdigest()
        if args.trace:
            tracer.merge_worker_dumps()
            rec["layers"] = layer_metrics(tracer.spans, tracer.counts)
            rec["layers"]["setup.import_s"] = rec["import_s"]
            rec["layers"]["scenario.load_s"] = rec["load_s"]
    shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(rec))
    return 0 if error is None and not rec["problems"] else 1


if __name__ == "__main__":
    sys.exit(main())
