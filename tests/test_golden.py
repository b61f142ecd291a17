"""Golden outputs: ten small runs must keep writing the `links.csv` files
checked in under ``tests/data``, and two small runs with ``emit_cir`` the
CIR files whose sha256 values are in ``tests/data/golden_cir_<name>.sha256``.

Integer and string columns must match exactly; float columns to a relative
1e-9, so that the test pins the model's outputs without depending on the
last bits a given numpy build produces.  The CIR files are pinned byte for
byte: their gains are rounded to f32, which hides most such last bits, and
the digests guard the file layout as well as the values.  When a change
moves a random stream or a model output on purpose, say so in CHANGES.md
and regenerate all the files with

    PYTHONPATH=src python tests/test_golden.py

A digest file has the ``sha256sum`` format, so ``sha256sum -c`` checks
it against the ``cir`` directory of a run with the same settings.
"""

import csv
import hashlib
import pathlib
import shutil
import sys
import tempfile

import pytest

from fr3sim.harness import load_config, run

DATA = pathlib.Path(__file__).resolve().parent / "data"

# name -> (preset, overrides)
CASES = {
    "sma-hex": (None, {"n_ues": 8, "seed": 4}),    # 19-site wrap-around
    "umi-disc": (None, {"scenario": "UMi", "layout": "disc", "n_ues": 6}),
    "inh-nf-2": ("inh-nf-2", {"n_ues": 4}),
    # all four LOS/NLOS x indoor/outdoor states, with UMa's height-dependent
    # LOS probability
    "uma-hex": (None, {"scenario": "UMa", "n_ues": 8, "seed": 3}),
    # RMa's dual-slope path loss and in-car UEs, LOS and NLOS
    "rma-hex": (None, {"scenario": "RMa", "n_ues": 8, "seed": 2}),
    # the 12-site InH hall of build_indoor_layout, 7 of its ceiling sites
    # serving
    "inh-hall": (None, {"scenario": "InH", "layout": "indoor", "n_ues": 8,
                        "seed": 3}),
    # the stochastic SNS draw of Pr_sns, with UE-side grip masks
    "umi-sns": ("umi-sns", {"n_ues": 6, "ue_sns": True}),
    # M = 8 rays per cluster: the standard-normal quantile offset basis
    "uma-raycount-6": ("uma-raycount-6", {"n_ues": 6}),
    # per-element BS field rows (nf_angles) with per-site SNS attenuation,
    # toward a CPE UE whose centre candidate has the device normal
    "inh-nf-angles-cpe": ("inh-nf-2", {"n_ues": 4, "bs_rows": 8, "bs_cols": 4,
                                       "nf_angles": True, "ue_device": "CPE",
                                       "sns": "stochastic"}),
    # single-polarized BS and UE: one field group per BS array, one site per
    # element, with near-field LOS pair distances
    "umi-single-pol": (None, {"scenario": "UMi", "layout": "disc", "n_ues": 6,
                              "bs_pol": 1, "ue_dual_pol": False,
                              "near_field": True, "force_state": "LOS"}),
}
EXACT = {"link_id", "ue", "site", "sector", "state", "n_clusters", "m_rays"}

# the runs whose CIR files are pinned, name -> (preset, overrides):
# plane-wave UMi links with absolute delays and two time samples, and
# near-field InH links whose LOS tap, per-element BS fields (nf_angles),
# per-site SNS attenuation, UE grip mask and second time sample all reach
# the gains, so that the files pin the BS element order on that path
CIR_CASES = {
    "umi-disc": (None, {"scenario": "UMi", "layout": "disc", "n_ues": 3,
                        "emit_cir": True, "t_count": 2,
                        "absolute_delay": True}),
    "inh-nf-angles": ("inh-nf-2", {"n_ues": 3, "bs_rows": 8, "bs_cols": 4,
                                   "nf_angles": True, "sns": "stochastic",
                                   "ue_sns": True, "ue_usage": "two-hand",
                                   "t_count": 2, "emit_cir": True}),
}


def _cir_golden(name):
    return DATA / f"golden_cir_{name}.sha256"


def _run(name, out_dir):
    preset, overrides = CASES[name]
    run(load_config(preset=preset,
                    overrides=dict(overrides, out_dir=str(out_dir))))
    return out_dir / "links.csv"


def _cir_digests(name, out_dir):
    """``sha256sum`` lines of the CIR files of CIR_CASES run ``name``."""
    preset, overrides = CIR_CASES[name]
    run(load_config(preset=preset,
                    overrides=dict(overrides, out_dir=str(out_dir))))
    return "".join(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n"
                   for p in sorted((out_dir / "cir").glob("link_*.cir")))


def _rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


@pytest.mark.parametrize("name", sorted(CASES))
def test_links_csv_matches_golden(tmp_path, name):
    got = _rows(_run(name, tmp_path))
    want = _rows(DATA / f"golden_{name}.csv")
    assert len(got) == len(want)
    assert list(got[0]) == list(want[0])
    for g, w in zip(got, want):
        for key, expected in w.items():
            if key in EXACT:
                assert g[key] == expected, (w["link_id"], key)
            else:
                assert float(g[key]) == pytest.approx(float(expected),
                                                      rel=1e-9), (w["link_id"], key)


def test_cir_files_match_golden_sha256(tmp_path):
    assert _cir_digests("umi-disc", tmp_path) == \
        _cir_golden("umi-disc").read_text()


def test_nf_angles_cir_files_match_golden_sha256(tmp_path):
    assert _cir_digests("inh-nf-angles", tmp_path) == \
        _cir_golden("inh-nf-angles").read_text()


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(_run(case, pathlib.Path(tmp)),
                        DATA / f"golden_{case}.csv")
            print(f"wrote {DATA / f'golden_{case}.csv'}", file=sys.stderr)
    for case in CIR_CASES:
        with tempfile.TemporaryDirectory() as tmp:
            _cir_golden(case).write_text(_cir_digests(case, pathlib.Path(tmp)))
            print(f"wrote {_cir_golden(case)}", file=sys.stderr)
