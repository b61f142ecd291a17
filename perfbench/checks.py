"""Output checks for one fr3sim run directory.

``check_run`` returns a list of problems; an empty list means the run's
outputs are correct.  The runner counts every link of a run with a problem
as failed.
"""

import csv
import hashlib
import math
import pathlib
import struct

NON_NUMERIC = {"state"}


def check_run(out_dir, n_links, expected_shape=None):
    """Check links.csv, the manifest, the CDFs and, when ``expected_shape``
    (U, S, T) is given, every CIR file of the run in ``out_dir``."""
    out = pathlib.Path(out_dir)
    problems = []
    links = out / "links.csv"
    with open(links, newline="") as f:
        rows = list(csv.DictReader(f))
    if len(rows) != n_links:
        problems.append(f"links.csv has {len(rows)} rows, expected {n_links}")
    for row in rows:
        for key, text in row.items():
            if key in NON_NUMERIC:
                continue
            try:
                val = float(text)
            except (TypeError, ValueError):
                problems.append(f"links.csv link {row['link_id']}: {key}={text!r}")
                continue
            if not math.isfinite(val):
                problems.append(f"links.csv link {row['link_id']}: {key} not finite")
            elif key == "capacity_bps_hz" and val < 0:
                problems.append(f"links.csv link {row['link_id']}: capacity < 0")

    digest = hashlib.sha256(links.read_bytes()).hexdigest()
    manifest = (out / "manifest.txt").read_text().splitlines()
    if f"output links.csv sha256 {digest}" not in manifest:
        problems.append("manifest links.csv sha256 does not match the file")

    cdfs = sorted(out.glob("cdf_*.csv"))
    if not cdfs:
        problems.append("no cdf_*.csv written")
    for path in cdfs:
        problems += _check_cdf(path)

    if expected_shape is not None:
        problems += _check_cirs(out / "cir", n_links, expected_shape)
    return problems


def cir_shape(cfg):
    """(U, S, T) of every CIR gain tensor a run of ``cfg`` writes."""
    from fr3sim.antenna import UEDevice, mount_ue_device

    ue = mount_ue_device(UEDevice(cfg.ue_device), [0.0, 0.0, 0.0],
                         dual_polarized=cfg.ue_dual_pol)
    return ue.size, cfg.bs_rows * cfg.bs_cols * cfg.bs_pol, cfg.t_count


def _check_cdf(path):
    with open(path, newline="") as f:
        rows = [(float(r["value"]), float(r["cdf"])) for r in csv.DictReader(f)]
    if not rows:
        return [f"{path.name} is empty"]
    values = [v for v, _ in rows]
    cdf = [c for _, c in rows]
    if any(b <= a for a, b in zip(values, values[1:])):
        return [f"{path.name}: values not increasing"]
    if any(b < a for a, b in zip(cdf, cdf[1:])) or not 0 < cdf[0] \
            or abs(cdf[-1] - 1.0) > 1e-6:
        return [f"{path.name}: cdf not monotone in (0, 1]"]
    return []


def _check_cirs(cir_dir, n_links, shape):
    import numpy as np
    from fr3sim import read_cir

    files = sorted(cir_dir.glob("link_*.cir"))
    if len(files) != n_links:
        return [f"{len(files)} CIR files, expected {n_links}"]
    problems = []
    for path in files:
        try:
            h = read_cir(path)
        except (ValueError, OSError, struct.error) as exc:
            problems.append(f"{path.name}: {exc}")
            continue
        if any(g.shape != tuple(shape) for g in h.gains):
            problems.append(f"{path.name}: gains not shaped {tuple(shape)}")
        if np.any(np.diff(h.delays) < 0):
            problems.append(f"{path.name}: delays decrease")
        if not all(np.all(np.isfinite(g)) for g in h.gains):
            problems.append(f"{path.name}: non-finite gains")
    return problems
