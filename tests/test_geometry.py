"""Steering vectors, scenario angles/delays, and the forward parameter map."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import sample_layout
from oracles import (angles_from_geometry, ris_bs_angles, steer_upa,
                     toas_from_geometry)
from rispos import geometry as gm
from rispos.errors import DegenerateGeometry
from rispos.geometry import ScenarioGeometry
from rispos.params import ChannelParams, PositionParams


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
    assert_allclose(steer_upa(0.0, 0.0, 2, 2), np.ones(4))
    assert_allclose(steer_upa(0.25, 0.0, 2, 2), [1, -1j, 1, -1j], atol=1e-15)


def test_steer_upa_composition_oracle():
    rng = np.random.default_rng(1)
    u_az, u_el = rng.uniform(-0.4, 0.4, 2)
    full = steer_upa(u_az, u_el, 10, 10)
    kron = np.kron(gm.steer_ula(u_el, 10), gm.steer_ula(u_az, 10))
    assert np.max(np.abs(full - kron)) < 1e-12


def test_default_scenario_angles(default_geom):
    """Angle values against a direct formula evaluation."""
    theta_t, phi_in, psi_in = angles_from_geometry(default_geom)
    theta_r0, _, psi_out0 = ris_bs_angles(default_geom.ris, default_geom.bs)
    assert abs(theta_r0 - np.arcsin(6.0 / np.sqrt(164.0))) < 1e-14
    assert abs(np.rad2deg(theta_r0) - 27.938353) < 1e-4
    assert abs(psi_in[0] - (np.pi - np.arcsin(-27.0 / np.sqrt(1513.0)))) < 1e-14
    assert abs(np.rad2deg(psi_in[0]) - 223.958373) < 1e-4
    assert abs(phi_in[0] - np.arccos(18.5 / np.sqrt(1855.25))) < 1e-14
    assert abs(np.rad2deg(phi_in[0]) - 64.563706) < 1e-4
    expected_t0 = np.arcsin((-28 * np.cos(default_geom.alpha)
                             + 27 * np.sin(default_geom.alpha))
                            / np.sqrt(1855.25))
    assert abs(theta_t[0] - expected_t0) < 1e-14
    assert abs(np.rad2deg(theta_t[0]) - 25.927907) < 1e-4
    # azimuth ranges of both path classes
    assert np.pi <= psi_in[0] <= 1.5 * np.pi
    assert np.pi / 2 <= psi_in[1] <= np.pi
    assert -np.pi / 2 <= psi_out0 <= 0.0


def test_default_scenario_toas(default_geom):
    taus = gm.true_channel_params(default_geom, np.zeros(2)).tau
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
        gm.true_channel_params(bad, np.zeros(1))


def test_scatterer_delay_exceeds_vlos():
    rng = np.random.default_rng(2)
    for _ in range(50):
        geom = sample_layout(rng)
        taus = gm.true_channel_params(geom, np.zeros(2)).tau
        assert taus[1] > taus[0]


def test_angle_ranges_over_layout():
    """Azimuth class ranges hold over the reference layout."""
    rng = np.random.default_rng(3)
    for _ in range(100):
        geom = sample_layout(rng)
        _, phi_in, psi_in = angles_from_geometry(geom)
        assert np.pi <= psi_in[0] <= 1.5 * np.pi
        assert np.pi / 2 <= psi_in[1] <= np.pi
        assert 0.0 <= phi_in[0] <= np.pi


def test_forward_map_composition(default_geom):
    gains = np.array([1 + 2j, 0.5 - 1j])
    pos = PositionParams(gains=gains, ms=default_geom.ms,
                         alpha=default_geom.alpha,
                         scatterers=default_geom.scatterers)
    params = gm.forward_map_G(pos, default_geom.ris, default_geom.bs)
    theta_t, phi_in, psi_in = angles_from_geometry(default_geom)
    taus = toas_from_geometry(default_geom)
    assert_allclose(params.gains, gains)          # identity block
    assert_allclose(params.tau, taus)
    assert_allclose(params.u, np.sin(theta_t))
    assert_allclose(params.c, np.cos(phi_in))
    assert_allclose(params.s, np.sin(psi_in) * np.sin(phi_in))


def test_forward_map_is_the_sines_of_the_oracle_angles():
    """Over 50 layouts, (u, c, s) are sin theta_t, cos phi_in and
    sin psi_in sin phi_in of the oracle angles, and the delays are the
    oracle's leg sums, to 1e-12."""
    rng = np.random.default_rng(12)
    for _ in range(50):
        geom = sample_layout(rng)
        params = gm.true_channel_params(geom, np.zeros(2))
        theta_t, phi_in, psi_in = angles_from_geometry(geom)
        assert_allclose(params.u, np.sin(theta_t), rtol=0, atol=1e-12)
        assert_allclose(params.c, np.cos(phi_in), rtol=0, atol=1e-12)
        assert_allclose(params.s, np.sin(psi_in) * np.sin(phi_in), rtol=0,
                        atol=1e-12)
        assert_allclose(params.tau, toas_from_geometry(geom), rtol=1e-12)


def test_forward_map_at_the_pole():
    """A scatterer straight below the RIS maps to c = 1, s = 0 (its
    azimuth is undefined, but not its spatial frequencies)."""
    lam = 3e8 / 4.9e9
    pos = PositionParams(gains=np.ones(2), ms=[22, 35, 1.5], alpha=1.3,
                         scatterers=[[-6.0, 8.0, 3.0]])
    params = gm.forward_map_G(pos, [-6.0, 8.0, 20.0], [0.0, 0.0, 28.0])
    assert params.c[1] == 1.0 and params.s[1] == 0.0
    assert np.all(np.isfinite(params.to_vector()))
    geom = ScenarioGeometry(bs=[0, 0, 28], ris=[-6, 8, 20], ms=pos.ms,
                            alpha=pos.alpha, scatterers=pos.scatterers,
                            wavelength=lam)
    with pytest.raises(DegenerateGeometry):
        angles_from_geometry(geom)


def test_geometry_validation():
    lam = 3e8 / 4.9e9
    with pytest.raises(ValueError):
        ScenarioGeometry(bs=[0, 0, 28], ris=[-6, 8, 20], ms=[22, 35, 1.5],
                         alpha=np.pi, scatterers=[], wavelength=lam)
    with pytest.raises(ValueError):
        ScenarioGeometry(bs=[0, 0, 28], ris=[-6, 8, 20], ms=[22, 35, 1.5],
                         alpha=0.1, scatterers=[], wavelength=lam,
                         d_ms=0.6 * lam)


def test_channel_params_take_views_are_read_only(default_geom):
    """Row k and the stack of one of ``ChannelParams.take`` are views of
    the stack, without a copy, and read-only: an edit raises and leaves
    the stack as it was. An index array gives copies, which may be
    edited."""
    p = ChannelParams.stack([
        gm.true_channel_params(default_geom, np.full(2, g, complex))
        for g in (1.0, 2.0)])
    before = p.to_vector()
    for index in (0, None):
        view = p.take(index)
        assert np.shares_memory(view.c, p.c)
        with pytest.raises(ValueError):
            view.c[0] = 0.5
    copy = p.take(np.array([1]))
    copy.c[:] = 0.5
    assert np.array_equal(p.to_vector(), before)
