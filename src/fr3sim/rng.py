"""Deterministic random-substream derivation.

Every stochastic stage of the pipeline draws from its own generator, keyed
by (master seed, drop index, entity ids..., stage id).  Substreams are
independent of evaluation order and of which optional features are enabled,
so a fixed master seed reproduces bit-identical results across worker counts
and across feature toggles that do not consume the stream in question.
"""

from numpy.random import SeedSequence, default_rng

# Root constant mixed into every seed sequence so fr3sim streams do not
# collide with user-created generators seeded from the same integer.
STREAM_ROOT = 0x46523353

# Stage ids.  One per RNG-consuming stage; never renumber, only append.
STAGE_DROP = 1            # UE positions, indoor flag, building type, floor
STAGE_STATE = 2           # LOS draw, d2D_in, O2I model
STAGE_LSP_FIELD = 3       # correlated Gaussian grids (per site/state/floor)
STAGE_O2I_RANDOM = 4      # N(0, sigma_P^2) penetration term
STAGE_CLUSTER_COUNT = 5
STAGE_DELAYS = 6
STAGE_POWERS = 7
STAGE_ANGLES = 8
STAGE_COUPLING = 9
STAGE_XPR = 10
STAGE_POL_WEIGHTS = 11
STAGE_PHASES = 12
STAGE_ABS_DELAY = 13      # keyed by (ue, site), shared across sectors
STAGE_NEARFIELD = 14
STAGE_SNS = 15
STAGE_UE_SNS = 16
STAGE_VELOCITY = 17


def substream(master_seed, *path):
    """Return a Generator for the given stream path.

    ``path`` is a tuple of non-negative integers, conventionally
    (drop_index, entity ids..., stage id).  The same path always yields the
    same stream regardless of how many other streams were consumed.
    """
    entropy = (STREAM_ROOT, int(master_seed)) + tuple(int(p) for p in path)
    return default_rng(SeedSequence(entropy))
