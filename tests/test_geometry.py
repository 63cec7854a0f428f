"""Steering vectors, scenario angles/delays, and the forward parameter map."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import sample_layout
from oracles import angle_from_spatial_freq
from rispos import geometry as gm
from rispos.errors import DegenerateGeometry
from rispos.geometry import ScenarioGeometry
from rispos.params import PositionParams


def test_steer_ula_zero_frequency():
    assert_allclose(gm.steer_ula(0.0, 4), np.ones(4))


def test_steer_ula_quarter_cycle():
    assert_allclose(gm.steer_ula(0.25, 4), [1, -1j, -1, 1j], atol=1e-15)


def test_steer_ula_matches_scalar_loop(default_geom):
    # independent per-element evaluation at the reference BS arrival angle
    theta_r0 = np.arcsin(6.0 / np.sqrt(164.0))
    u = 0.5 * np.sin(theta_r0)
    vec = gm.steer_ula(u, default_geom.n_bs)
    for k in range(default_geom.n_bs):
        assert abs(vec[k] - np.exp(-2j * np.pi * k * u)) < 1e-12


def test_steer_unit_modulus_and_self_product():
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.uniform(-0.5, 0.5)
        v = gm.steer_ula(u, 16)
        assert_allclose(np.abs(v), 1.0, atol=1e-14)
        assert_allclose(np.vdot(v, v).real, 16.0, atol=1e-12)


def test_steer_upa_trivial_cases():
    assert_allclose(gm.steer_upa(0.0, 0.0, 2, 2), np.ones(4))
    assert_allclose(gm.steer_upa(0.25, 0.0, 2, 2), [1, -1j, 1, -1j], atol=1e-15)


def test_steer_upa_composition_oracle():
    rng = np.random.default_rng(1)
    u_az, u_el = rng.uniform(-0.4, 0.4, 2)
    full = gm.steer_upa(u_az, u_el, 10, 10)
    kron = np.kron(gm.steer_ula(u_el, 10), gm.steer_ula(u_az, 10))
    assert np.max(np.abs(full - kron)) < 1e-12


def test_default_scenario_angles(default_geom):
    """Angle values against a direct formula evaluation."""
    angles = gm.angles_from_geometry(default_geom)
    a0 = angles[0]
    assert abs(a0.theta_r0 - np.arcsin(6.0 / np.sqrt(164.0))) < 1e-14
    assert abs(np.rad2deg(a0.theta_r0) - 27.938353) < 1e-4
    assert abs(a0.psi_in - (np.pi - np.arcsin(-27.0 / np.sqrt(1513.0)))) < 1e-14
    assert abs(np.rad2deg(a0.psi_in) - 223.958373) < 1e-4
    assert abs(a0.phi_in - np.arccos(18.5 / np.sqrt(1855.25))) < 1e-14
    assert abs(np.rad2deg(a0.phi_in) - 64.563706) < 1e-4
    expected_t0 = np.arcsin((-28 * np.cos(default_geom.alpha)
                             + 27 * np.sin(default_geom.alpha))
                            / np.sqrt(1855.25))
    assert abs(a0.theta_t - expected_t0) < 1e-14
    assert abs(np.rad2deg(a0.theta_t) - 25.927907) < 1e-4
    # azimuth ranges of both path classes
    assert np.pi <= a0.psi_in <= 1.5 * np.pi
    assert np.pi / 2 <= angles[1].psi_in <= np.pi
    assert -np.pi / 2 <= a0.psi_out0 <= 0.0


def test_default_scenario_toas(default_geom):
    taus = gm.toas_from_geometry(default_geom)
    expected0 = (np.sqrt(164.0) + np.sqrt(1855.25)) / 3e8
    assert abs(taus[0] - expected0) < 1e-22
    assert abs(taus[0] * 1e9 - 186.262872) < 1e-5
    expected1 = (np.sqrt(164.0) + np.sqrt(442.0) + np.sqrt(1158.25)) / 3e8
    assert abs(taus[1] - expected1) < 1e-22


def test_collocated_nodes_rejected(default_geom):
    bad = ScenarioGeometry(bs=default_geom.bs, ris=default_geom.ris,
                           ms=default_geom.ris, alpha=0.5, scatterers=[],
                           wavelength=default_geom.wavelength)
    with pytest.raises(DegenerateGeometry):
        gm.toas_from_geometry(bad)
    with pytest.raises(DegenerateGeometry):
        gm.angles_from_geometry(bad)


def test_scatterer_delay_exceeds_vlos():
    rng = np.random.default_rng(2)
    for _ in range(50):
        geom = sample_layout(rng)
        taus = gm.toas_from_geometry(geom)
        assert taus[1] > taus[0]


def test_angle_ranges_over_layout():
    """Azimuth class ranges hold over the reference layout."""
    rng = np.random.default_rng(3)
    for _ in range(100):
        geom = sample_layout(rng)
        angles = gm.angles_from_geometry(geom)
        assert np.pi <= angles[0].psi_in <= 1.5 * np.pi
        assert np.pi / 2 <= angles[1].psi_in <= np.pi
        assert 0.0 <= angles[0].phi_in <= np.pi


def test_forward_map_composition(default_geom):
    gains = np.array([1 + 2j, 0.5 - 1j])
    pos = PositionParams(gains=gains, ms=default_geom.ms,
                         alpha=default_geom.alpha,
                         scatterers=default_geom.scatterers)
    params = gm.forward_map_G(pos, default_geom.ris, default_geom.bs)
    angles = gm.angles_from_geometry(default_geom)
    taus = gm.toas_from_geometry(default_geom)
    assert_allclose(params.gains, gains)          # identity block
    assert_allclose(params.tau, taus)
    assert_allclose(params.theta_t, [a.theta_t for a in angles])
    assert_allclose(params.phi_in, [a.phi_in for a in angles])
    assert_allclose(params.psi_in, [a.psi_in for a in angles])


def test_spatial_frequency_round_trip():
    lam = 3e8 / 4.9e9
    rng = np.random.default_rng(4)
    for d in (lam / 2, lam / 3):
        for theta in rng.uniform(-np.pi / 2 + 0.01, np.pi / 2 - 0.01, 30):
            u = gm.aod_spatial_freq(theta, d, lam)
            back = angle_from_spatial_freq(u, d, lam)
            assert abs(back - theta) < 1e-12


def test_clamp_guard():
    assert gm.clamped_arcsin(1.0 + 5e-10) == pytest.approx(np.pi / 2)
    with pytest.raises(DegenerateGeometry):
        gm.clamped_arcsin(1.0 + 1e-8)
    with pytest.raises(DegenerateGeometry):
        gm.clamped_arccos(-1.0 - 1e-8)


def test_geometry_validation():
    lam = 3e8 / 4.9e9
    with pytest.raises(ValueError):
        ScenarioGeometry(bs=[0, 0, 28], ris=[-6, 8, 20], ms=[22, 35, 1.5],
                         alpha=np.pi, scatterers=[], wavelength=lam)
    with pytest.raises(ValueError):
        ScenarioGeometry(bs=[0, 0, 28], ris=[-6, 8, 20], ms=[22, 35, 1.5],
                         alpha=0.1, scatterers=[], wavelength=lam,
                         d_ms=0.6 * lam)
