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
        self._values = {}         # (param, state, fc) -> evaluated row

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
        """The parameter's value, evaluated once per (param, state, fc) and
        memoized; ``default``, when given, stands in for a parameter the
        table lacks and is not cached."""
        key = (param, state, fc)
        if key not in self._values:
            if default is not None and not self.has(param, state):
                return default
            self._values[key] = eval_expression(self._entry(param, state).raw, fc=fc)
        return self._values[key]

    def by_state(self, param, keys, fc=None):
        """``value(param, key, fc)`` for each state key of the array ``keys``."""
        uniq, inverse = np.unique(keys, return_inverse=True)
        vals = np.array([self.value(param, k, fc) for k in uniq.tolist()])
        return vals[inverse].reshape(np.shape(keys))

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

    def validate(self):
        states = (LOS, NLOS, O2I) if self.value("indoor_ratio") > 0 else (LOS, NLOS)
        for p in _REQUIRED_COMMON:
            self._entry(p)
        for st in states:
            for p in _REQUIRED_PER_STATE:
                self._entry(p, st)
                if p.startswith("sigma") and self.value(p, st, 10.0) < 0:
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


# -- LOS probability -----------------------------------------------------

_POW = np.frompyfunc(pow, 2, 1)


def spow(base, exponent):
    """``base ** exponent`` element by element with Python's float ``pow``:
    numpy's vectorized power rounds some results differently, and a link's
    value must not depend on whether it was computed alone or in an array."""
    return np.asarray(_POW(base, exponent), dtype=float)


def los_probability(sc, d2d, h_ue=1.5):
    """Probability that a link at 2D distance ``d2d`` is line-of-sight;
    ``d2d`` and ``h_ue`` broadcast over links."""
    d2d, h_ue = np.broadcast_arrays(np.asarray(d2d, dtype=float),
                                    np.asarray(h_ue, dtype=float))
    if np.any(d2d < 0):
        raise ValueError("d2d must be non-negative")
    family = sc.text("los_family")
    with np.errstate(divide="ignore", invalid="ignore"):   # d2d = 0 has p = 1
        if family == "sma_exp":
            d_c = sc.value("los_critical_distance")
            kappa = sc.value("los_decay")
            return np.where(d2d <= d_c, 1.0, np.exp(-(d2d - d_c) / kappa))
        if family == "umi":
            return np.where(d2d <= 18.0, 1.0, 18.0 / d2d + np.exp(-d2d / 36.0)
                            * (1.0 - 18.0 / d2d))
        if family == "uma":
            c = spow(np.maximum(np.minimum(h_ue, 23.0) - 13.0, 0.0) / 10.0, 1.5)
            base = 18.0 / d2d + np.exp(-d2d / 63.0) * (1.0 - 18.0 / d2d)
            return np.where(d2d <= 18.0, 1.0, np.minimum(1.0, base * (
                1.0 + c * 1.25 * spow(d2d / 100.0, 3) * np.exp(-d2d / 150.0))))
    if family == "rma":
        return np.where(d2d <= 10.0, 1.0, np.exp(-(d2d - 10.0) / 1000.0))
    if family == "inh":
        return np.where(d2d <= 1.2, 1.0,
                        np.where(d2d < 6.5, np.exp(-(d2d - 1.2) / 4.7),
                                 np.exp(-(d2d - 6.5) / 32.6) * 0.32))
    raise ParameterError(f"unknown los_family {family!r}")


# -- Propagation state ---------------------------------------------------

@dataclass
class PropagationState:
    """Propagation state of links; each field holds one value per link."""
    los: np.ndarray               # "LOS" | "NLOS"
    location: np.ndarray          # "outdoor" | "indoor" | "car"
    o2i_model: np.ndarray = "none"   # "low" | "high" | "low-A" | "none"
    d2d_in: np.ndarray = 0.0

    @property
    def state_key(self):
        """Parameter-table state used for each link (a str for one link)."""
        key = np.where(np.equal(self.location, "indoor"), O2I,
                       np.where(np.equal(self.los, "LOS"), LOS, NLOS))
        return key if key.ndim else str(key)


def _o2i_mix(sc, building):
    suffix = "com" if building == "commercial" else "res"
    probs = [sc.value(f"o2i_p_{m}_{suffix}", default=0.0)
             for m in ("low", "high", "lowa")]
    total = sum(probs)
    return [p / total for p in probs] if total > 0 else [1.0, 0.0, 0.0]


def assign_states(links, indoor, building, sc, rng, force_los=None,
                  force_location=None):
    """Draw the PropagationState of every link of the LinkGeometry
    ``links``, whose UEs the drop placed ``indoor`` in ``building``.

    Per link the stream gives five uniforms in a fixed documented order
    (LOS, indoor, building type, d2D_in, O2I model), used or not, so seeds
    reproduce across feature toggles; the drop decides indoor and building.
    """
    d2d = np.asarray(links.d2d, dtype=float)
    xi, _, _, u_d2din, u_o2i = np.moveaxis(rng.uniform(size=d2d.shape + (5,)), -1, 0)
    los = np.where(xi < los_probability(sc, d2d, links.h_ue), "LOS", "NLOS")
    if force_los is not None:
        los = np.full(d2d.shape, force_los)
    indoor = np.broadcast_to(indoor, d2d.shape)
    outdoor = "car" if sc.value("outdoor_in_car", default=0.0) > 0 else "outdoor"
    location = np.where(indoor, "indoor", outdoor)
    if force_location is not None:
        location = np.full(d2d.shape, force_location)
        indoor = location == "indoor"

    d2d_in = np.zeros(d2d.shape)
    o2i_model = np.full(d2d.shape, "none", dtype="<U5")
    commercial = np.equal(building, "commercial")
    for btype, rows in (("residential", indoor & ~commercial),
                        ("commercial", indoor & commercial)):
        if not rows.any():
            continue
        key = f"d2d_in_max_{btype}"
        d2d_in[rows] = u_d2din[rows] * sc.value(
            key if sc.has(key) else "d2d_in_max")
        p_low, p_high, _ = _o2i_mix(sc, btype)
        u = u_o2i[rows]
        o2i_model[rows] = np.where(u < p_low, "low",
                                   np.where(u < p_low + p_high, "high", "low-A"))
    return PropagationState(los, location, o2i_model, d2d_in)
