"""The benchmark's workloads.  README.md says what each one is and why it
was chosen."""

WORKLOADS = {
    # The default RunConfig with fewer UEs: 100 UEs take about 7 minutes.
    # The master seed is fixed because the LSP-field cost per link is
    # bimodal in the drop; this drop has the km-wide shared groups that
    # dominate the default run (README, "sma-hex at 8 UEs").
    "sma-hex": {
        "preset": None,
        "overrides": {"n_ues": 8, "workers": 1, "seed": 4},
    },
    "inh-nf": {
        "preset": "inh-nf-2",
        "overrides": {"n_ues": 60, "workers": 1},
    },
    "umi-sns-mix": {
        "preset": "umi-sns",
        "overrides": {"n_ues": 40, "workers": 2, "ue_sns": True,
                      "pol_variability": True, "absolute_delay": True,
                      "ray_count_scaling": True, "emit_cir": True,
                      "t_count": 2},
    },
}


def sim_seed(workload, seed):
    """Master seed of the simulator for benchmark seed ``seed``: the
    workload's own fixed seed if it has one, else ``seed``.  Every run of
    one invocation uses it, so its inputs do not depend on how many runs
    fit into the measuring time."""
    return WORKLOADS[workload]["overrides"].get("seed", seed)
