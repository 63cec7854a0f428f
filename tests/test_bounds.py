"""Fisher information, transformation Jacobian, and error bounds."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import sample_layout, sample_layout_with
from oracles import (angle_bounds, angles_from_geometry,
                     channel_params_from_vector, derivative_factors_slots,
                     fim_channel_tensor, model_field_derivs)
from rispos import bounds as bnd
from rispos import channel as ch
from rispos import geometry as gm
from rispos import harness as hn
from rispos.geometry import ScenarioGeometry
from rispos.params import ChannelParams, PositionParams

FD_TOL = 1e-5


def _fd_field_derivs(params, setup):
    """Central finite differences of the model field in every direction."""
    cfg = setup.cfg
    vec0 = params.to_vector()
    steps = np.tile([1e-6 / cfg.bandwidth, 0, 0, 1e-6, 1e-6, 1e-6],
                    params.n_paths)
    steps[1::6] = 1e-6 * np.maximum(np.abs(vec0[1::6]), 1e-9)
    steps[2::6] = 1e-6 * np.maximum(np.abs(vec0[2::6]), 1e-9)
    out = []
    for u, h in enumerate(steps):
        vp, vm = vec0.copy(), vec0.copy()
        vp[u] += h
        vm[u] -= h
        pp = channel_params_from_vector(vp)
        pm = channel_params_from_vector(vm)
        fp = ch.model_field(pp, setup)
        fm = ch.model_field(pm, setup)
        out.append((fp - fm) / (2 * h))
    return np.stack(out)


def test_model_derivatives_match_finite_differences(setup20):
    """Every analytic channel derivative agrees with central differences."""
    s = setup20
    analytic = model_field_derivs(s.true, s.setup)
    numeric = _fd_field_derivs(s.true, s.setup)
    for u in range(analytic.shape[0]):
        scale = np.linalg.norm(analytic[u])
        assert np.linalg.norm(analytic[u] - numeric[u]) < FD_TOL * scale, \
            f"direction {u}"


@pytest.mark.parametrize("n_scat", [1, 2])
def test_derivative_factors_match_the_per_slot_oracle(n_scat):
    """One factor pass gives the oracle's A and B and model_field's bits."""
    rng = np.random.default_rng(40 + n_scat)
    cfg = hn.ExperimentConfig().system(10.0)
    if n_scat == 2:
        cfg = dataclasses.replace(cfg, t1=22, t_total=43)
    for _ in range(20):
        geom = sample_layout_with(rng, n_scat)
        setup = ch.Setup(geom, cfg, ch.make_pilots(cfg, geom.n_ms, 8),
                         ch.make_phase_schedule(cfg, geom.n_ris, 7))
        gains = 1e-5 * (rng.standard_normal(n_scat + 1)
                        + 1j * rng.standard_normal(n_scat + 1))
        params = gm.true_channel_params(geom, gains)
        a, b, mu = bnd.derivative_factors(params, setup)
        for new, old in zip((a, b), derivative_factors_slots(params, setup)):
            assert new.shape == old.shape
            assert np.all(np.max(np.abs(new - old), axis=0)
                          <= 1e-12 * np.max(np.abs(old), axis=0))
        assert np.array_equal(mu, ch.model_field(params, setup))


def test_fim_symmetric_psd(setup20):
    s = setup20
    j = bnd.fim_channel(s.true, s.setup)
    assert np.max(np.abs(j - j.T)) < 1e-10 * np.max(np.abs(j))
    d = np.sqrt(np.diag(j))
    eigs = np.linalg.eigvalsh(j / np.outer(d, d))
    assert eigs.min() >= -1e-10 * eigs.max()


def test_fim_power_linearity(setup20, default_exp):
    s = setup20
    cfg10 = default_exp.system(10.0)
    pil10 = ch.make_pilots(cfg10, s.geom.n_ms, 8)
    j10 = bnd.fim_channel(s.true, ch.Setup(s.geom, cfg10, pil10, s.sched))
    j20 = bnd.fim_channel(s.true, s.setup)
    assert np.max(np.abs(j20 - 10 * j10)) < 1e-9 * np.max(np.abs(j20))


def _true_pos(geom, gains):
    return PositionParams(gains=gains, ms=geom.ms, alpha=geom.alpha,
                          scatterers=geom.scatterers)


def test_transformation_gain_blocks(setup20):
    s = setup20
    t_mat = bnd.transformation_matrix(_true_pos(s.geom, s.gains), s.geom.ris,
                                      s.geom.bs)
    assert t_mat.shape == (11, 12)
    for q in range(2):
        assert t_mat[2 * q, 6 * q + 1] == 1.0
        assert t_mat[2 * q + 1, 6 * q + 2] == 1.0
        # gain rows carry nothing else
        row = t_mat[2 * q].copy()
        row[6 * q + 1] = 0.0
        assert np.all(row == 0.0)
    # VLoS delay is independent of the scatterer coordinates
    assert np.all(t_mat[8:11, 0] == 0.0)


def _fd_transformation(pos, ris, bs):
    """Central finite differences of the forward map, (5Q+6, 6(Q+1))."""
    x0 = pos.to_vector()
    steps = 1e-6 * np.maximum(np.abs(x0), 1.0)
    steps[:4] = 1e-6 * np.maximum(np.abs(x0[:4]), 1e-9)
    rows = []
    for i, h in enumerate(steps):
        xp, xm = x0.copy(), x0.copy()
        xp[i] += h
        xm[i] -= h
        fp = gm.forward_map_G(PositionParams.from_vector(xp), ris,
                              bs).to_vector()
        fm = gm.forward_map_G(PositionParams.from_vector(xm), ris,
                              bs).to_vector()
        rows.append((fp - fm) / (2 * h))
    return np.array(rows)


def test_transformation_matches_finite_differences(setup20):
    s = setup20
    pos = _true_pos(s.geom, s.gains)
    t_mat = bnd.transformation_matrix(pos, s.geom.ris, s.geom.bs)
    numeric = _fd_transformation(pos, s.geom.ris, s.geom.bs)
    scale = np.max(np.abs(numeric))
    assert np.max(np.abs(t_mat - numeric)) < FD_TOL * scale


def test_transformation_matches_finite_differences_over_layouts():
    """The unit-vector Jacobian agrees with central differences of the
    forward map on 50 layouts."""
    rng = np.random.default_rng(21)
    for _ in range(50):
        geom = sample_layout(rng)
        pos = _true_pos(geom, np.array([1e-6, 2e-6j]))
        t_mat = bnd.transformation_matrix(pos, geom.ris, geom.bs)
        numeric = _fd_transformation(pos, geom.ris, geom.bs)
        scale = np.max(np.abs(numeric))
        assert np.max(np.abs(t_mat - numeric)) < FD_TOL * scale


def test_transformation_at_the_pole():
    """A scatterer straight below the RIS has finite derivatives that
    match central differences (the angle Jacobian is singular there)."""
    geom = ScenarioGeometry(bs=[0, 0, 28], ris=[-6, 8, 20], ms=[22, 35, 1.5],
                            alpha=1.3, scatterers=[[-6.0, 8.0, 3.0]],
                            wavelength=3e8 / 4.9e9)
    pos = _true_pos(geom, np.array([1e-6, 2e-6j]))
    t_mat = bnd.transformation_matrix(pos, geom.ris, geom.bs)
    numeric = _fd_transformation(pos, geom.ris, geom.bs)
    assert np.all(np.isfinite(t_mat))
    assert np.max(np.abs(t_mat - numeric)) < FD_TOL * np.max(np.abs(numeric))


@pytest.mark.parametrize("power", [-10.0, 20.0])
def test_bounds_equal_the_angle_fim_oracle_over_layouts(power):
    """Over 50 layouts, PEB, OEB and the angle-unit channel CRLBs from the
    (u, c, s) FIM equal those of the oracle's angle-domain FIM to 1e-9
    relative, the CRLBs through D C D^T at the report edge; the reported
    angles are the oracle's angles."""
    rng = np.random.default_rng(31)
    for i in range(50):
        geom = sample_layout(rng)
        exp = hn.ExperimentConfig(
            ms=geom.ms.tolist(), alpha_deg=float(np.rad2deg(geom.alpha)),
            scatterers=geom.scatterers.tolist(), master_seed=i)
        setup = hn.power_setup(exp, power)
        gains = ch.nominal_gain_amplitudes(setup.cfg, geom).astype(complex)
        true = gm.true_channel_params(geom, gains)
        rep = bnd.position_bounds(bnd.fim_channel(true, setup)[None],
                                  setup.t_true).row(0)
        ref = angle_bounds(geom, gains, setup)
        assert abs(rep.peb - ref.peb) <= 1e-9 * ref.peb
        assert abs(rep.oeb - ref.oeb) <= 1e-9 * ref.oeb
        assert_allclose(hn.angle_crlb(rep.cov_channel, true),
                        np.diag(ref.cov_channel), rtol=1e-9, atol=0)
        angles = hn.channel_angles(true)
        assert_allclose(angles[:, 3:].T, angles_from_geometry(geom),
                        rtol=1e-12, atol=0)


@pytest.mark.parametrize("power", [-10.0, 20.0])
def test_fim_equals_the_tensor_form(power):
    """The FIM from the slot and subcarrier derivative factors,
    Re{(A^H A) o (B^H B)}, equals the one from the (6(Q+1), T, N)
    derivative tensor to 1e-12, entries scaled by sqrt(J_uu J_vv), at the
    reference layout and 20 layouts."""
    rng = np.random.default_rng(41)
    layouts = [hn.ExperimentConfig().geometry()]
    layouts += [sample_layout(rng) for _ in range(20)]
    for i, geom in enumerate(layouts):
        exp = hn.ExperimentConfig(
            ms=geom.ms.tolist(), alpha_deg=float(np.rad2deg(geom.alpha)),
            scatterers=geom.scatterers.tolist(), master_seed=i)
        setup = hn.power_setup(exp, power)
        true = gm.true_channel_params(geom, ch.draw_gains(setup.cfg, geom, i))
        ref = fim_channel_tensor(true, setup)
        d = np.sqrt(np.diag(ref))
        gap = np.abs(bnd.fim_channel(true, setup) - ref) / np.outer(d, d)
        assert np.max(gap) <= 1e-12, (i, np.max(gap))


def test_fim_at_gains_matches_fim_channel():
    """On the 800 trials of master seed 77 (200 per power), the FIM at
    the truth from the setup's unit-gain Gram matches ``fim_channel`` at
    ``geometry.true_channel_params`` to 1e-13, entries scaled by
    sqrt(J_uu J_vv), and ``PowerSetup.truth`` gives those parameters bit
    for bit."""
    exp = hn.ExperimentConfig(master_seed=77)
    worst = 0.0
    for p_idx, power in enumerate(exp.powers_dbm):
        setup = hn.power_setup(exp, power)
        for trial in range(exp.n_trials):
            gain_seed, _ = np.random.SeedSequence(
                (exp.master_seed, hn._TAG_TRIAL, p_idx, trial)).spawn(2)
            gains = ch.draw_gains(setup.cfg, setup.geom,
                                  np.random.default_rng(gain_seed))
            true = gm.true_channel_params(setup.geom, gains)
            truth, _ = setup.truth(gains[None])
            assert np.array_equal(
                ChannelParams(truth.tau, truth.gains[0], truth.u, truth.c,
                              truth.s).to_vector(), true.to_vector())
            ref = bnd.fim_channel(true, setup)
            d = np.sqrt(np.diag(ref))
            gap = np.abs(bnd.fim_at_gains(setup.true_gram, gains, setup)
                         - ref) / np.outer(d, d)
            worst = max(worst, float(np.max(gap)))
    assert worst <= 1e-13


def test_position_bounds_finite_and_positive(setup20):
    s = setup20
    j = bnd.fim_channel(s.true, s.setup)
    t_mat = bnd.transformation_matrix(_true_pos(s.geom, s.gains), s.geom.ris,
                                      s.geom.bs)
    rep = bnd.position_bounds(j[None], t_mat).row(0)
    assert np.all(np.diag(rep.cov_channel) > 0.0)
    assert 0.0 < rep.peb < 1.0
    assert 0.0 < rep.oeb < 1.0
    assert not rep.singular


def test_peb_power_scaling(setup20, default_exp):
    s = setup20
    t_mat = bnd.transformation_matrix(_true_pos(s.geom, s.gains), s.geom.ris,
                                      s.geom.bs)
    cfg10 = default_exp.system(10.0)
    pil10 = ch.make_pilots(cfg10, s.geom.n_ms, 8)
    j10 = bnd.fim_channel(s.true, ch.Setup(s.geom, cfg10, pil10, s.sched))
    j20 = bnd.fim_channel(s.true, s.setup)
    r10 = bnd.position_bounds(j10[None], t_mat).row(0)
    r20 = bnd.position_bounds(j20[None], t_mat).row(0)
    assert abs(r10.peb / r20.peb - np.sqrt(10.0)) < 1e-8 * np.sqrt(10.0)
    assert abs(r10.oeb / r20.oeb - np.sqrt(10.0)) < 1e-8 * np.sqrt(10.0)


def test_scatterer_permutation_invariance(default_exp):
    """Consistently permuting scatterer paths leaves PEB/OEB unchanged."""
    lam = 3e8 / 4.9e9
    base = dict(bs=[0, 0, 28], ris=[-6, 8, 20], ms=[22, 35, 1.5],
                alpha=np.deg2rad(75), wavelength=lam)
    g1 = ScenarioGeometry(scatterers=[[6, 5, 3], [12, 4, 2]], **base)
    g2 = ScenarioGeometry(scatterers=[[12, 4, 2], [6, 5, 3]], **base)
    cfg = default_exp.system(20.0)
    cfg.v_slots = 3
    sched = ch.make_phase_schedule(cfg, g1.n_ris, 7)
    pilots = ch.make_pilots(cfg, g1.n_ms, 8)
    gains = np.array([1e-6, 2e-6 * 1j, 1.5e-6])
    reps = []
    for geom, gorder in ((g1, gains), (g2, gains[[0, 2, 1]])):
        true = gm.true_channel_params(geom, gorder)
        j = bnd.fim_channel(true, ch.Setup(geom, cfg, pilots, sched))
        t_mat = bnd.transformation_matrix(_true_pos(geom, gorder), geom.ris,
                                          geom.bs)
        reps.append(bnd.position_bounds(j[None], t_mat).row(0))
    assert abs(reps[0].peb - reps[1].peb) < 1e-10 * reps[0].peb
    assert abs(reps[0].oeb - reps[1].oeb) < 1e-10 * reps[0].oeb


def test_information_monotone_in_slots(setup20):
    """Duplicating the slot schedule doubles information: CRLB halves."""
    s = setup20
    sched2 = ch.PhaseSchedule(
        block_phases=s.sched.block_phases,
        slot_block=np.concatenate([s.sched.slot_block, s.sched.slot_block]))
    import dataclasses
    cfg2 = dataclasses.replace(s.cfg, t_total=2 * s.cfg.t_total)
    pilots2 = np.concatenate([s.pilots, s.pilots], axis=1)
    j1 = bnd.fim_channel(s.true, s.setup)
    j2 = bnd.fim_channel(s.true, ch.Setup(s.geom, cfg2, pilots2, sched2))
    assert np.max(np.abs(j2 - 2 * j1)) < 1e-9 * np.max(np.abs(j2))
    t_mat = bnd.transformation_matrix(_true_pos(s.geom, s.gains), s.geom.ris,
                                      s.geom.bs)
    crlb1 = np.diag(bnd.position_bounds(j1[None], t_mat).cov_channel[0])
    crlb2 = np.diag(bnd.position_bounds(j2[None], t_mat).cov_channel[0])
    assert np.all(crlb2 <= crlb1 * (1 + 1e-9))


def test_rmse_respects_crlb_floor(mini_mc):
    """Monte Carlo RMSE cannot beat 0.8x the bound at 20 dBm."""
    recs = [r for r in mini_mc.records[0] if r.error is None]
    crlb = np.mean([r.crlb for r in recs], axis=0).reshape(-1, 6)
    col = {"tau": 0, "delta_re": 1, "delta_im": 2, "theta_t": 3,
           "phi_in": 4, "psi_in": 5}
    for cls, c in col.items():
        sq = np.concatenate([np.atleast_1d(r.sq_errors["sage"][cls])
                             for r in recs])
        rmse = np.sqrt(np.mean(sq))
        floor = 0.8 * np.sqrt(np.mean(crlb[:, c]))
        assert rmse >= floor, f"{cls}: rmse {rmse} below floor {floor}"
