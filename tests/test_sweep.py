"""A seeded sweep of small configurations through ``cli.main``.

Every input must end in exit code 0, 2 (configuration error) or 3 (data
error), never in an uncaught exception or a traceback.  The draws are
consistent where the options depend on each other (``nf_angles`` only
with ``near_field``, ``layout = indoor`` only for InH, ``ue_sns`` only with
a handheld UE, ``force_location = indoor`` only outside InH, a disc radius
that fits the scenario's minimum BS-UE distance), so that most runs reach
the link pass.  A key that a run reads only under another setting is set
only with that setting: ``deploy_radius`` on the disc layout,
``bs_downtilt_deg`` off the indoor one, ``n_spec`` with ``near_field`` and
``m_min`` with ``ray_count_scaling``.  Its value is drawn either way, so
that the other keys' draws do not depend on it.

Exit code 3 is expected from ``cluster_variability`` runs that draw
N = 6 or 7 clusters: TR 38.901's ``c_theta`` starts at N = 8.
"""

import collections
import contextlib
import io
import random
import warnings

from fr3sim.cli import main

N_CONFIGS = 300
SCENARIOS = ("UMa", "UMi", "RMa", "SMa", "InH")


def draw_argv(rng, out_dir):
    """One small configuration as a ``fr3sim run`` command line."""
    scenario = rng.choice(SCENARIOS)
    indoor = scenario == "InH"
    layouts = ("hex", "disc", "indoor") if indoor else ("hex", "disc")
    near_field = rng.random() < 0.4
    handheld = rng.random() < 0.7
    opts = {
        "scenario": scenario,
        "layout": rng.choice(layouts),
        "seed": rng.randrange(10_000),
        "n-ues": rng.randint(1, 4),
        "fc-ghz": rng.choice((0.5, 3.5, 7.0, 10.0, 15.0, 24.0, 28.0, 100.0)),
        # a disc wide enough for the scenario's minimum BS-UE distance
        "deploy-radius": rng.choice((5.0, 20.0) if indoor else (80.0, 200.0)),
        "bs-rows": rng.randint(1, 4),
        "bs-cols": rng.randint(1, 4),
        "bs-pol": rng.choice((1, 2)),
        "bs-pattern": rng.choice(("directional", "isotropic")),
        "bs-downtilt-deg": rng.choice((0.0, 10.0, 90.0)),
        "ue-device": "handheld" if handheld else "CPE",
        "force-state": rng.choice(("", "LOS", "NLOS")),
        "force-location": rng.choice(("", "", "outdoor")
                                     + (() if indoor else ("indoor",))),
        "sns": rng.choice(("off", "stochastic")),
        "t-count": rng.randint(1, 2),
        "n-spec": rng.randint(0, 2),
        "m-min": rng.choice((8, 20)),
        "out-dir": out_dir,
    }
    flags = {
        "near-field": near_field,
        "nf-angles": near_field and rng.random() < 0.5,
        "ue-sns": handheld and rng.random() < 0.4,
        "ue-dual-pol": rng.random() < 0.7,
        "cluster-variability": rng.random() < 0.3,
        "pol-variability": rng.random() < 0.3,
        "absolute-delay": rng.random() < 0.3,
        "ray-count-scaling": rng.random() < 0.3,
        "emit-cir": rng.random() < 0.2,
    }
    needs = {"deploy-radius": opts["layout"] == "disc",
             "bs-downtilt-deg": opts["layout"] != "indoor",
             "n-spec": near_field, "m-min": flags["ray-count-scaling"]}
    argv = ["run"]
    for key, value in opts.items():
        if needs.get(key, True):
            argv += [f"--{key}", str(value)]
    argv += [f"--{key}" if on else f"--no-{key}" for key, on in flags.items()]
    return argv


def test_config_sweep_exits_cleanly(tmp_path):
    rng = random.Random(20260)
    codes, messages, failures = collections.Counter(), collections.Counter(), []
    for i in range(N_CONFIGS):
        argv = draw_argv(rng, str(tmp_path / f"run{i}"))
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = main(argv)
        except Exception as exc:    # the sweep reports every config that raised
            code = f"raised {type(exc).__name__}: {exc}"
        text = err.getvalue()
        codes[code] += 1
        if code != 0:
            lines = text.strip().splitlines()
            messages[lines[-1] if lines else str(code)] += 1
        if code not in (0, 2, 3) or "Traceback" in text:
            failures.append((" ".join(argv), code))
    summary = "\n".join(f"{n:4d}  {msg}" for msg, n in messages.most_common())
    assert not failures, f"{failures[:5]}\nexit codes {dict(codes)}\n{summary}"
    # most runs reach the link pass, so the sweep exercises it
    assert codes[0] >= N_CONFIGS // 2, f"exit codes {dict(codes)}\n{summary}"
