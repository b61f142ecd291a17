"""Scenario parameter registry, LOS probability, and propagation states.

All scenario numerics live in delimiter-separated parameter files with one
row per (parameter, state) pair and an explicit provenance label.  Values
may be numeric constants or expressions in a restricted grammar: numbers,
``fc`` (carrier frequency in GHz), ``log10``, ``min``, ``max``, parentheses
and the arithmetic operators ``+ - * / **``.
"""

import ast
import hashlib
import operator
from dataclasses import dataclass, field
from importlib.resources import files

import numpy as np

LOS, NLOS, O2I = "los", "nlos", "o2i"
STATES = (LOS, NLOS, O2I)

# LSP ordering used for cross-correlation matrices; K dropped outside LOS.
LSP_ORDER_LOS = ("sf", "k", "ds", "asd", "asa", "zsd", "zsa")
LSP_ORDER_NLOS = ("sf", "ds", "asd", "asa", "zsd", "zsa")

PROVENANCES = ("paper", "companion-standard", "placeholder")


class ParameterError(Exception):
    """Raised when a parameter file is malformed or incomplete."""


_BIN_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
            ast.Mult: operator.mul, ast.Div: operator.truediv,
            ast.Pow: operator.pow}
_FUNCS = {"log10": np.log10, "min": min, "max": max}


def eval_expression(text, fc=None):
    """Evaluate a restricted parameter expression.

    Only numeric literals, ``fc``, ``log10``/``min``/``max`` calls, unary
    minus and basic arithmetic are allowed.
    """
    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id == "fc":
                if fc is None:
                    raise ParameterError(f"expression {text!r} needs fc but none was given")
                return float(fc)
            raise ParameterError(f"unknown name {node.id!r} in expression {text!r}")
        if isinstance(node, ast.BinOp) and type(node.op) in _BIN_OPS:
            return _BIN_OPS[type(node.op)](ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -ev(node.operand)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _FUNCS:
            return float(_FUNCS[node.func.id](*[ev(a) for a in node.args]))
        raise ParameterError(f"disallowed construct in expression {text!r}")

    try:
        return ev(ast.parse(text, mode="eval"))
    except ParameterError:
        raise
    except Exception as exc:
        raise ParameterError(f"cannot evaluate {text!r}: {exc}") from None


@dataclass(frozen=True)
class Entry:
    param: str
    state: str
    raw: str
    units: str
    provenance: str


# Keys that must exist (in the given state or "all") for every scenario.
_REQUIRED_COMMON = ("pl_family", "los_family", "indoor_ratio", "min_bs_ue_d2d",
                    "ue_height_outdoor", "h_bs_default")
_REQUIRED_PER_STATE = ("mu_lg_ds", "sigma_lg_ds", "mu_lg_asd", "sigma_lg_asd",
                       "mu_lg_asa", "sigma_lg_asa", "mu_lg_zsa", "sigma_lg_zsa",
                       "mu_lg_zsd", "sigma_lg_zsd", "sf_sigma",
                       "r_tau", "mu_xpr", "sigma_xpr", "n_clusters", "n_rays",
                       "c_ds", "c_asd", "c_asa", "c_zsa", "c_zsd",
                       "per_cluster_shadow")
_CORR_PAIRS = ("sf_k", "ds_sf", "asd_sf", "asa_sf", "zsd_sf", "zsa_sf",
               "ds_k", "asd_k", "asa_k", "zsd_k", "zsa_k",
               "asd_ds", "asa_ds", "zsd_ds", "zsa_ds",
               "asd_asa", "zsd_asd", "zsa_asd", "zsd_asa", "zsa_asa",
               "zsd_zsa")


class ScenarioParams:
    """One scenario's parameter table with state-aware lookup."""

    def __init__(self, name, entries):
        self.name = name
        self.entries = {}
        for e in entries:
            key = (e.param, e.state)
            if key in self.entries:
                raise ParameterError(f"{name}: duplicate row for {e.param}/{e.state}")
            self.entries[key] = e

    def _entry(self, param, state="all"):
        e = self.entries.get((param, state)) or self.entries.get((param, "all"))
        if e is None:
            raise ParameterError(f"{self.name}: missing parameter {param!r} (state {state})")
        return e

    def has(self, param, state="all"):
        return (param, state) in self.entries or (param, "all") in self.entries

    def text(self, param, state="all"):
        return self._entry(param, state).raw

    def value(self, param, state="all", fc=None, default=None):
        """The parameter's value; ``default``, when given, stands in for a
        parameter the table lacks."""
        if default is not None and not self.has(param, state):
            return default
        return eval_expression(self._entry(param, state).raw, fc=fc)

    # -- convenience accessors used across the pipeline -----------------

    def min_bs_ue_distance(self):
        return self.value("min_bs_ue_d2d")

    def indoor_ratio(self):
        return self.value("indoor_ratio")

    def commercial_fraction(self):
        return self.value("commercial_fraction", default=0.0)

    def building_floors(self, building):
        key = "commercial_floors" if building == "commercial" else "residential_floors"
        return int(self.value(key, default=1))

    def floor_height(self, floor):
        base = self.value("floor_base_m", default=1.5)
        step = self.value("floor_step_m", default=3.0)
        return base + step * floor

    def outdoor_ue_height(self):
        return self.value("ue_height_outdoor")

    def lsp_stats(self, state, fc):
        """mu/sigma of the log-normal spreads plus K statistics (LOS)."""
        out = {}
        for lsp in ("ds", "asd", "asa", "zsa", "zsd"):
            out[f"mu_lg_{lsp}"] = self.value(f"mu_lg_{lsp}", state, fc)
            out[f"sigma_lg_{lsp}"] = self.value(f"sigma_lg_{lsp}", state, fc)
        if state == LOS:
            out["mu_k"] = self.value("mu_k", state, fc)
            out["sigma_k"] = self.value("sigma_k", state, fc)
        return out

    def cross_correlation(self, state):
        """(matrix, lsp_names); symmetric with unit diagonal."""
        names = LSP_ORDER_LOS if state == LOS else LSP_ORDER_NLOS
        n = len(names)
        c = np.eye(n)
        for pair in _CORR_PAIRS:
            a, b = pair.split("_")
            if a not in names or b not in names:
                continue
            v = self.value(f"corr_{pair}", state)
            if abs(v) > 1.0:
                raise ParameterError(f"{self.name}: corr_{pair}/{state} = {v} outside [-1, 1]")
            i, j = names.index(a), names.index(b)
            c[i, j] = c[j, i] = v
        return c, names

    def correlation_distances(self, state):
        names = LSP_ORDER_LOS if state == LOS else LSP_ORDER_NLOS
        return {m: self.value(f"dcor_{m}", state) for m in names}

    def ssp(self, state, fc):
        """Small-scale statistics; c_ds is converted from ns to seconds."""
        return {
            "r_tau": self.value("r_tau", state),
            "mu_xpr": self.value("mu_xpr", state),
            "sigma_xpr": self.value("sigma_xpr", state),
            "n_clusters": int(self.value("n_clusters", state)),
            "n_rays": int(self.value("n_rays", state)),
            "c_ds": self.value("c_ds", state, fc) * 1e-9,
            "c_asd": self.value("c_asd", state, fc),
            "c_asa": self.value("c_asa", state, fc),
            "c_zsa": self.value("c_zsa", state, fc),
            "c_zsd": self.value("c_zsd", state, fc),
            "zeta": self.value("per_cluster_shadow", state),
        }

    def cluster_range(self, state):
        if not (self.has("d1_clusters", state) and self.has("d2_clusters", state)):
            raise ParameterError(
                f"{self.name}: cluster-count range d1_clusters/d2_clusters missing for {state}")
        return (int(self.value("d1_clusters", state)), int(self.value("d2_clusters", state)))

    def abs_delay_params(self, state=NLOS):
        return (self.value("mu_lg_abs_delay", state),
                self.value("sigma_lg_abs_delay", state),
                self.value("dcor_abs_delay", state))

    def validate(self):
        states = (LOS, NLOS, O2I) if self.indoor_ratio() > 0 else (LOS, NLOS)
        for p in _REQUIRED_COMMON:
            self._entry(p)
        for st in states:
            for p in _REQUIRED_PER_STATE:
                e = self._entry(p, st)
                if p.startswith("sigma") and eval_expression(e.raw, fc=10.0) < 0:
                    raise ParameterError(f"{self.name}: {p}/{st} is negative")
            self.cross_correlation(st)
            if self.has("d1_clusters", st) and self.has("d2_clusters", st):
                d1, d2 = self.cluster_range(st)
                if d1 > d2:
                    raise ParameterError(f"{self.name}: d1_clusters > d2_clusters for {st}")
        for (param, state), e in self.entries.items():
            if e.provenance not in PROVENANCES:
                raise ParameterError(
                    f"{self.name}: {param}/{state} has unknown provenance {e.provenance!r}")


@dataclass
class Registry:
    scenarios: dict
    materials: dict           # name -> (intercept dB, slope dB/GHz)
    ue_masks: dict            # (usage, band) -> np.ndarray of 8 dB values
    angle_scaling: dict       # {"c_phi": {N: value}, "c_theta": {N: value}}
    file_hashes: dict = field(default_factory=dict)

    def scenario(self, name):
        try:
            return self.scenarios[name]
        except KeyError:
            raise ParameterError(f"unknown scenario {name!r}") from None


def _parse_rows(path):
    rows = []
    for ln, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("\t")]
        if len(parts) != 5:
            raise ParameterError(f"{path.name}:{ln}: expected 5 tab-separated columns")
        rows.append(parts)
    return rows


def data_root():
    """The packaged data directory: parameter tables and presets/."""
    return files("fr3sim") / "data"


def load_parameter_tables(source=None):
    """Load all parameter files from ``source`` (a directory path) or the
    packaged defaults.  Returns a validated Registry."""
    root = source if source is not None else data_root()
    hashes = {}

    def digest(p):
        hashes[p.name] = hashlib.sha256(p.read_bytes()).hexdigest()

    scenarios = {}
    for p in sorted(root.iterdir()):
        if not p.name.endswith(".params"):
            continue
        digest(p)
        if p.name in ("materials.params", "ue_masks.params", "angle_scaling.params"):
            continue
        name = p.name[:-len(".params")]
        entries = [Entry(param, state, raw, units, prov)
                   for param, state, raw, units, prov in _parse_rows(p)]
        sc = ScenarioParams(_canonical_name(name), entries)
        sc.validate()
        scenarios[sc.name] = sc

    materials = {}
    mpath = root / "materials.params"
    for material, _state, raw, _units, _prov in _parse_rows(mpath):
        intercept, slope = (float(x) for x in raw.split("/"))
        materials[material] = (intercept, slope)

    masks = {}
    for usage, band, raw, _units, _prov in _parse_rows(root / "ue_masks.params"):
        vals = np.array([float(x) for x in raw.split("/")])
        masks[(usage, band)] = vals

    scaling = {"c_phi": {}, "c_theta": {}}
    for table, n, raw, _units, _prov in _parse_rows(root / "angle_scaling.params"):
        scaling[table][int(n)] = float(raw)

    return Registry(scenarios, materials, masks, scaling, hashes)


def _canonical_name(name):
    return {"sma": "SMa", "uma": "UMa", "umi": "UMi", "rma": "RMa", "inh": "InH"}.get(name, name)


def save_parameter_tables(registry, outdir):
    """Write the registry back out in canonical (sorted) form.

    A save/load round trip reproduces the tables bit-for-bit because raw
    value strings are preserved verbatim.
    """
    import pathlib
    outdir = pathlib.Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, sc in registry.scenarios.items():
        lines = ["# fr3sim scenario parameter table",
                 "# parameter\tstate\tvalue\tunits\tprovenance"]
        for (param, state) in sorted(sc.entries):
            e = sc.entries[(param, state)]
            lines.append("\t".join([e.param, e.state, e.raw, e.units, e.provenance]))
        (outdir / f"{name.lower()}.params").write_text("\n".join(lines) + "\n")


# -- LOS probability -----------------------------------------------------

def los_probability(sc, d2d, h_ue=1.5):
    """Probability that a link at 2D distance ``d2d`` is line-of-sight."""
    if d2d < 0:
        raise ValueError("d2d must be non-negative")
    family = sc.text("los_family")
    if family == "sma_exp":
        d_c = sc.value("los_critical_distance")
        kappa = sc.value("los_decay")
        return 1.0 if d2d <= d_c else float(np.exp(-(d2d - d_c) / kappa))
    if family == "umi":
        if d2d <= 18.0:
            return 1.0
        return 18.0 / d2d + np.exp(-d2d / 36.0) * (1.0 - 18.0 / d2d)
    if family == "uma":
        if d2d <= 18.0:
            return 1.0
        if h_ue <= 13.0:
            c = 0.0
        else:
            c = ((min(h_ue, 23.0) - 13.0) / 10.0) ** 1.5
        base = 18.0 / d2d + np.exp(-d2d / 63.0) * (1.0 - 18.0 / d2d)
        return min(1.0, base * (1.0 + c * 1.25 * (d2d / 100.0) ** 3 * np.exp(-d2d / 150.0)))
    if family == "rma":
        return 1.0 if d2d <= 10.0 else float(np.exp(-(d2d - 10.0) / 1000.0))
    if family == "inh":
        if d2d <= 1.2:
            return 1.0
        if d2d < 6.5:
            return float(np.exp(-(d2d - 1.2) / 4.7))
        return float(np.exp(-(d2d - 6.5) / 32.6) * 0.32)
    raise ParameterError(f"unknown los_family {family!r}")


# -- Propagation state ---------------------------------------------------

@dataclass
class PropagationState:
    los: str                      # "LOS" | "NLOS"
    location: str                 # "outdoor" | "indoor" | "car"
    o2i_model: str = "none"       # "low" | "high" | "low-A" | "none"
    d2d_in: float = 0.0

    @property
    def state_key(self):
        """Parameter-table state used for this link."""
        if self.location == "indoor":
            return O2I
        return LOS if self.los == "LOS" else NLOS


def _o2i_mix(sc, building):
    suffix = "com" if building == "commercial" else "res"
    probs = []
    for model in ("low", "high", "lowa"):
        key = f"o2i_p_{model}_{suffix}"
        probs.append(sc.value(key, default=0.0))
    total = sum(probs)
    if total <= 0:
        return [1.0, 0.0, 0.0]
    return [p / total for p in probs]


def assign_states(links, sc, rng, ues=None, force_los=None, force_location=None):
    """Assign a PropagationState to every link.

    Per link the stream is consumed in a fixed documented order (LOS,
    indoor, building type, d2D_in, O2I model) regardless of which draws end
    up being used, so seeds reproduce across feature toggles.  When ``ues``
    is given, the indoor flag and building type drawn at drop time are
    reused and the corresponding draws discarded.
    """
    states = []
    for idx, g in enumerate(links):
        xi = rng.uniform()
        u_indoor = rng.uniform()
        u_building = rng.uniform()
        u_d2din = rng.uniform()
        u_o2i = rng.uniform()

        los = "LOS" if xi < los_probability(sc, g.d2d, g.h_ue) else "NLOS"
        if force_los is not None:
            los = force_los

        if ues is not None:
            indoor = ues[idx].indoor
            building = ues[idx].building or "residential"
        else:
            indoor = u_indoor < sc.indoor_ratio()
            building = "commercial" if u_building < sc.commercial_fraction() else "residential"

        location = "indoor" if indoor else "outdoor"
        if not indoor and sc.value("outdoor_in_car", default=0.0) > 0:
            location = "car"
        if force_location is not None:
            location = force_location
            indoor = location == "indoor"

        o2i_model = "none"
        d2d_in = 0.0
        if indoor:
            key = f"d2d_in_max_{'commercial' if building == 'commercial' else 'residential'}"
            if not sc.has(key):
                key = "d2d_in_max"
            d2d_in = u_d2din * sc.value(key)
            p_low, p_high, p_lowa = _o2i_mix(sc, building)
            if u_o2i < p_low:
                o2i_model = "low"
            elif u_o2i < p_low + p_high:
                o2i_model = "high"
            else:
                o2i_model = "low-A"
        states.append(PropagationState(los, location, o2i_model, d2d_in))
    return states
