"""The array-field evaluation on mount-time frames against the per-call
reference in `field_reference.py`, which rebuilds each field group's
rotation from its Orientation: the LCS angles, psi and both field
components must match it bit for bit (their int64 views, so that a signed
zero counts), for shared and per-element angles on every kind of mounted
array a run builds, and the stacked angular spreads must match four calls
of the old form."""

import numpy as np
import pytest

import field_reference as ref
from fr3sim import harness
from fr3sim.antenna import (ElementPattern, PanelArray, UEDevice,
                            field_pattern, mount_bs_array, mount_ue_device,
                            ue_candidate_locations)
from fr3sim.geometry import (Orientation, build_hex_layout, gcs_to_lcs,
                             sph_unit, unit_to_angles)
from fr3sim.largescale import C_LIGHT

LAM = C_LIGHT / 7e9
SMA_SECTORS = build_hex_layout(1299.0).sectors


def _device_orientations(kind, device=Orientation(0.0, 0.0, 0.0)):
    """Each candidate antenna's Orientation, on a device of ``kind`` turned
    by ``device``."""
    return [Orientation(o.alpha + device.alpha, o.beta + device.beta,
                        o.gamma + device.gamma)
            for _off, o in ue_candidate_locations(UEDevice(kind))]


def _mounts():
    """name -> (mounted array, each field group's Orientation)."""
    directional = ElementPattern.directional()
    out = {f"sma-sector-{k}": (mount_bs_array(PanelArray(m=8, n=8, p=2),
                                              np.zeros(3), s, LAM), [s] * 2)
           for k, s in enumerate(SMA_SECTORS)}
    down = Orientation(0.0, 90.0, 0.0)
    out["64x16x2-downtilt-90"] = (mount_bs_array(
        PanelArray(m=64, n=16, p=2, element=directional), np.zeros(3),
        down, LAM), [down] * 2)
    single = Orientation(-60.0, 12.0, 0.0)
    out["8x4x1-single-pol"] = (mount_bs_array(
        PanelArray(m=8, n=4, p=1, element=directional), np.zeros(3),
        single, LAM), [single])
    out["handheld"] = (mount_ue_device(UEDevice("handheld"), np.zeros(3)),
                       _device_orientations("handheld") * 2)
    out["cpe"] = (mount_ue_device(UEDevice("CPE"), np.zeros(3)),
                  _device_orientations("CPE") * 2)
    out["cpe-single-pol"] = (mount_ue_device(UEDevice("CPE"), np.zeros(3),
                                             dual_polarized=False),
                             _device_orientations("CPE"))
    turn = Orientation(20.0, 5.0, -3.0)
    out["handheld-rotated"] = (mount_ue_device(
        UEDevice("handheld"), np.zeros(3), device_orientation=turn),
        _device_orientations("handheld", turn) * 2)
    return out


MOUNTS = _mounts()

# the axes and poles, where sines and cosines are exact zeros of either sign
_Z, _A = np.meshgrid([0.0, 90.0, 180.0], [0.0, -0.0, 90.0, -90.0, 180.0, -180.0])
SPECIAL_ZEN, SPECIAL_AZ = _Z.ravel(), _A.ravel()


def _angles(rng, shape):
    """Random zenith and azimuth of ``shape`` with the special directions
    appended along the last axis."""
    lead = shape[:-1]
    zen = np.concatenate([rng.uniform(0.0, 180.0, shape),
                          np.broadcast_to(SPECIAL_ZEN, lead + SPECIAL_ZEN.shape)], -1)
    az = np.concatenate([rng.uniform(-180.0, 180.0, shape),
                         np.broadcast_to(SPECIAL_AZ, lead + SPECIAL_AZ.shape)], -1)
    return zen, az


def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64),
                                                      want.view(np.int64))


def reference_frames(orientations):
    """The rotation stack and per-group rows the old field_pattern built
    on every call."""
    frames = {}
    row = np.array([frames.setdefault(o, len(frames)) for o in orientations])
    return np.array([o.rotation() for o in frames]), row


@pytest.mark.parametrize("name", MOUNTS)
def test_mount_frames_are_the_per_call_frames(name):
    arr, oris = MOUNTS[name]
    rot, row = reference_frames(oris)
    assert same_bits(arr.frames, rot)
    assert np.array_equal(arr.frame_index, row)
    placed = arr.placed_at([10.0, -3.0, 1.5])
    assert placed.frames is arr.frames and placed.frame_index is arr.frame_index


@pytest.mark.parametrize("name", MOUNTS)
def test_shared_angles_bitwise(name):
    arr, oris = MOUNTS[name]
    zen, az = _angles(np.random.default_rng(1), (280,))
    rot, _row = reference_frames(oris)
    for got, want in zip(gcs_to_lcs(arr.frames, zen[None], az[None]),
                         ref.gcs_to_lcs(rot, zen[None], az[None])):
        assert same_bits(got, want)
    got = field_pattern(arr, zen, az)
    want = ref.array_fields(arr, oris, zen, az)
    assert got[0].shape == (len(oris), zen.size)
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


@pytest.mark.parametrize("name", MOUNTS)
def test_per_element_angles_bitwise(name):
    arr, oris = MOUNTS[name]
    zen, az = _angles(np.random.default_rng(2), (arr.size, 24))
    rot, row = reference_frames(oris)
    elem = arr.frame_index[arr.group_index]
    for got, want in zip(gcs_to_lcs(arr.frames[elem], zen, az),
                         ref.gcs_to_lcs(rot[row[arr.group_index]], zen, az)):
        assert same_bits(got, want)
    got = field_pattern(arr, zen, az)
    want = ref.array_fields(arr, oris, zen, az)
    assert got[0].shape == zen.shape
    assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])


def test_unit_vectors_and_angles_bitwise():
    rng = np.random.default_rng(3)
    zen, az = _angles(rng, (500,))
    assert same_bits(sph_unit(zen, az), ref.sph_unit(zen, az))
    # link_geometry's displacement vectors: not unit length, and exact
    # zeros of either sign in any component
    v = rng.normal(0.0, 100.0, (500, 3))
    v[::7, 0] = -0.0
    v[::5, 1] = 0.0
    v[::11, :2] = 0.0
    for got, want in zip(unit_to_angles(v), ref.unit_to_angles(v)):
        assert same_bits(got, want)
    for got, want in zip(unit_to_angles(v[3]), ref.unit_to_angles(v[3])):
        assert same_bits(got, want)


@pytest.mark.parametrize("n, m", [(1, 1), (3, 8), (12, 20), (25, 20), (6, 40)])
def test_stacked_angular_spreads_bitwise(n, m):
    rng = np.random.default_rng(n * 100 + m)
    p = rng.exponential(1.0, n)
    w_ray = np.repeat(p / p.sum() / m, m)
    aoa = rng.uniform(-180.0, 180.0, (n, m))
    aoa.flat[::3] = 180.0
    aod = rng.normal(170.0, 30.0, (n, m))          # wraps through +-180
    zoa = rng.uniform(0.0, 180.0, (n, m))
    zod = np.full((n, m), 90.0)                    # no spread at all
    stack = (aoa, aod, zoa, zod)
    got = harness._angular_spread(stack, w_ray)
    want = [ref.angular_spread(a, w_ray) for a in stack]
    assert all(type(x) is float for x in got)
    assert same_bits(got, want)
