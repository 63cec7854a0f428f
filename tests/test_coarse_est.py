"""Sparse recovery, AOD refinement, RIS AOA recovery, and delay estimation."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (bs_steering, concentrated_aod_objective, dcs_somp_tensor,
                     ms_steering, observe, synthesize_tensor, to_angles,
                     trial_tensor)
from rispos import channel as ch
from rispos import coarse_est as ce
from rispos import geometry as gm
from rispos import harness as hn
from rispos.errors import (OutOfRange, RankDeficient, SingularConcentration,
                           SparsityInfeasible)
from rispos.params import ChannelParams


def test_dcs_somp_one_sparse_exact():
    rng = np.random.default_rng(0)
    theta = rng.standard_normal((12, 40)) + 1j * rng.standard_normal((12, 40))
    truth = 17
    coeff = np.array([2.0 - 1j, -0.5 + 0.3j, 1j])
    y = np.stack([theta[:, truth][:, None] * c for c in coeff])
    res = ce.dcs_somp(y, theta, 1)
    assert res.support == [truth]
    assert_allclose(res.coeffs[:, 0, 0], coeff, atol=1e-12)
    assert res.residual_norms[-1] < 1e-12


def test_dcs_somp_orthonormal_zero_residual():
    """K orthonormal columns: residual exactly zero after K selections."""
    n = 16
    theta = np.fft.fft(np.eye(n)) / np.sqrt(n)
    rng = np.random.default_rng(1)
    support_true = [2, 9, 13]
    y = np.zeros((4, n, 1), dtype=complex)
    for s in support_true:
        y += theta[:, s][None, :, None] * (
            rng.standard_normal((4, 1, 1)) + 1j * rng.standard_normal((4, 1, 1)))
    res = ce.dcs_somp(y, theta, 3)
    assert sorted(res.support) == support_true
    assert res.residual_norms[-1] < 1e-12


def test_dcs_somp_residual_monotone():
    rng = np.random.default_rng(2)
    theta = rng.standard_normal((16, 64)) + 1j * rng.standard_normal((16, 64))
    y = rng.standard_normal((5, 16, 2)) + 1j * rng.standard_normal((5, 16, 2))
    res = ce.dcs_somp(y, theta, 8)
    assert np.all(np.diff(res.residual_norms) <= 1e-12)


def test_dcs_somp_sparsity_infeasible():
    theta = np.eye(4, dtype=complex)
    y = np.zeros((1, 4, 1), dtype=complex)
    with pytest.raises(SparsityInfeasible):
        ce.dcs_somp(y, theta, 5)


def _complex_normal(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "noisy"])
@pytest.mark.parametrize("n_sub,n_meas,n_col,n_dict,sparsity", [
    (20, 16, 40, 128, 1), (20, 16, 40, 128, 2), (20, 16, 40, 128, 3),
    (20, 8, 1, 100, 1)], ids=["aod_k1", "aod_k2", "aod_k3", "ris_aoa"])
def test_dcs_somp_matches_tensor_oracle(n_sub, n_meas, n_col, n_dict,
                                        sparsity, noisy):
    """The covariance form picks the support of the correlation-tensor
    oracle and returns its coefficients and residual norms, at the shapes
    of the AOD and the per-path RIS arrival-angle calls. Residual norms
    left at rounding level by an exact fit are compared against ||Y||."""
    rng = np.random.default_rng([n_meas, n_dict, sparsity, int(noisy)])
    theta = _complex_normal(rng, n_meas, n_dict)
    cols = rng.choice(n_dict, sparsity, replace=False)
    y = np.einsum("mk,nkl->nml", theta[:, cols],
                  _complex_normal(rng, n_sub, sparsity, n_col))
    if noisy:
        y += 0.3 * _complex_normal(rng, n_sub, n_meas, n_col)
    res = ce.dcs_somp(y, theta, sparsity)
    ref = dcs_somp_tensor(y, theta, sparsity)
    assert res.support == ref.support
    assert sorted(res.support) == sorted(cols)
    assert res.coeffs.shape == (n_sub, sparsity, n_col)
    assert_allclose(res.coeffs, ref.coeffs, rtol=1e-12)
    assert_allclose(res.residual_norms, ref.residual_norms, rtol=1e-12,
                    atol=1e-12 * ref.residual_norms[0])


def test_coarse_stages_pick_the_oracle_columns(monkeypatch):
    """Over 10 reference trials per power, built from their received
    tensors, the stages of stage ``aod_mle`` select the same dictionary
    columns as the correlation-tensor oracle: ``estimate_aod_coarse``
    from the observation's covariance as ``dcs_somp_tensor`` on the
    first T1 slots of the tensor, and ``estimate_ris_aoa`` as a run with
    the oracle patched in for ``dcs_somp``."""
    exp = hn.ExperimentConfig(n_trials=10, stage="aod_mle")
    setups = [hn.power_setup(exp, p) for p in exp.powers_dbm]

    def picks(somp):
        calls = []

        def recorded(*args):
            res = somp(*args)
            calls.append(res.support)
            return res
        monkeypatch.setattr(ce, "dcs_somp", recorded)
        for p_idx, setup in enumerate(setups):
            t1 = setup.cfg.t1
            theta_m = setup.pilots[:, :t1].conj().T @ setup.a_m_dict.matrix
            for trial in range(exp.n_trials):
                _, y = trial_tensor(exp, setup, p_idx, trial)
                obs = observe(y, setup)
                if somp is dcs_somp_tensor:
                    res = recorded(y[:, :t1, :].conj().transpose(2, 1, 0),
                                   theta_m, setup.n_paths)
                    u_hat = setup.a_m_dict.grid[res.support]
                else:
                    u_hat, res = ce.estimate_aod_coarse(obs, setup)
                    calls.append(res.support)
                u_hat = ce.refine_aod_mle(obs, setup, u_hat)
                ce.estimate_ris_aoa(obs, setup, u_hat)
        return calls

    fast = picks(ce.dcs_somp)
    assert len(fast) == 4 * 10 * (1 + setups[0].n_paths)
    assert fast == picks(dcs_somp_tensor)


def test_covariance_picks_equal_dcs_somp_picks():
    """On 50 reference trials per power, the departure picks from the
    observation's covariance equal ``dcs_somp``'s picks on the first T1
    slots of the received tensor, and the residual norms agree."""
    exp = hn.ExperimentConfig()
    n_draws = 0
    for p_idx, power in enumerate(exp.powers_dbm):
        setup = hn.power_setup(exp, power)
        t1 = setup.cfg.t1
        theta_m = setup.pilots[:, :t1].conj().T @ setup.a_m_dict.matrix
        for trial in range(50):
            _, y = trial_tensor(exp, setup, p_idx, trial)
            _, picks = ce.estimate_aod_coarse(observe(y, setup), setup)
            ref = ce.dcs_somp(y[:, :t1, :].conj().transpose(2, 1, 0),
                              theta_m, setup.n_paths)
            assert picks.support == ref.support, (power, trial)
            assert picks.coeffs is None
            assert_allclose(picks.residual_norms, ref.residual_norms,
                            rtol=1e-9)
            n_draws += 1
    assert n_draws >= 200


def _ongrid_setup(ongrid, noiseless=True, seed=0, p_dbm=20.0):
    geom, cfg = ongrid.geom, ongrid.cfg
    cfg = ch.SystemConfig(**{**cfg.__dict__, "p_tx": ch.dbm_to_watt(p_dbm)})
    gains = ch.draw_gains(cfg, geom, 42)
    true = gm.true_channel_params(geom, gains)
    sched = ch.make_phase_schedule(cfg, geom.n_ris, 7)
    pilots = ch.make_pilots(cfg, geom.n_ms, 8)
    setup = ch.Setup(geom, cfg, pilots, sched)
    rx = synthesize_tensor(setup, true, noise_seed=seed, noiseless=noiseless)
    return true, setup, observe(rx, setup)


def test_aod_coarse_ongrid_exact(ongrid):
    true, setup, rx = _ongrid_setup(ongrid)
    a_m = setup.a_m_dict
    u_hat, somp = ce.estimate_aod_coarse(rx, setup)
    expect = {int(np.argmin(np.abs(a_m.grid - u))) for u in true.u}
    assert set(somp.support) == expect
    assert_allclose(np.sort(u_hat), np.sort(true.u), atol=1e-12)


def test_aod_coarse_offgrid_half_cell(setup20):
    """Off-grid truth recovered to within half a grid cell in sin space."""
    s = setup20
    u_hat, _ = ce.estimate_aod_coarse(s.obs_clean, s.setup)
    from rispos.harness import associate_paths
    perm = associate_paths(u_hat, s.true.u)
    gap = np.abs(u_hat[perm] - s.true.u)
    assert np.all(gap <= 1.0 / s.cfg.g_ms + 1e-12)


def test_refine_aod_mle_improves(setup20):
    s = setup20
    u_grid, _ = ce.estimate_aod_coarse(s.obs_clean, s.setup)
    refined = ce.refine_aod_mle(s.obs_clean, s.setup, u_grid)
    from rispos.harness import associate_paths
    perm_c = associate_paths(u_grid, s.true.u)
    perm_r = associate_paths(refined, s.true.u)
    err_c = np.abs(u_grid[perm_c] - s.true.u)
    err_r = np.abs(refined[perm_r] - s.true.u)
    assert np.all(err_r < 0.1 * np.maximum(err_c, 1e-12))


def test_refine_aod_mle_fixed_point(setup20):
    s = setup20
    refined = ce.refine_aod_mle(s.obs_clean, s.setup, s.true.u.copy())
    assert np.max(np.abs(refined - s.true.u)) < 1e-9
    # objective change from the truth is negligible
    mats = _aod_mats(s, s.rx_clean)
    obj = concentrated_aod_objective(np.arcsin(refined), *mats, s.geom)
    t1 = concentrated_aod_objective(np.arcsin(s.true.u), *mats, s.geom)
    assert abs(obj - t1) <= 1e-8 * abs(t1)


def _aod_mats(s, rx):
    a_b = bs_steering(s.geom)
    x1 = s.pilots[:, :s.cfg.t1]
    c_mat = x1 @ x1.conj().T
    s_mat = np.zeros((s.geom.n_ms, s.geom.n_ms), dtype=complex)
    for n in range(s.cfg.n_subcarriers):
        b_n = (rx[:, :s.cfg.t1, n] @ x1.conj().T).conj().T @ a_b
        s_mat += np.outer(b_n, b_n.conj()) / s.geom.n_bs
    return s_mat, c_mat


def _aod_objective_long_way(theta, s_mat, c_mat, geom):
    """Un-simplified concentrated AOD objective 2 tr(DS) - tr(S D C D^H)."""
    a = ms_steering(geom, theta)
    d_mat = a @ np.linalg.solve(a.conj().T @ c_mat @ a, a.conj().T)
    return (2.0 * np.real(np.trace(d_mat @ s_mat))
            - np.real(np.trace(s_mat @ d_mat @ c_mat @ d_mat.conj().T)))


def test_aod_objective_batched_matches_scalar(setup20):
    """An (n, Q+1) stack gives the n scalar values, and the long form."""
    s = setup20
    mats = _aod_mats(s, s.rx_noisy)
    rng = np.random.default_rng(4)
    for n_paths in (1, 2, 3):
        stack = rng.uniform(-1.4, 1.4, (17, n_paths))
        batched = concentrated_aod_objective(stack, *mats, s.geom)
        assert batched.shape == (17,)
        scalar = [concentrated_aod_objective(row, *mats, s.geom)
                  for row in stack]
        assert all(isinstance(v, float) for v in scalar)
        assert_allclose(batched, scalar, rtol=1e-12)
        long_way = [_aod_objective_long_way(row, *mats, s.geom)
                    for row in stack]
        assert_allclose(batched, long_way, rtol=1e-12)


def test_aod_objective_batched_rejects_colliding_row(setup20):
    s = setup20
    mats = _aod_mats(s, s.rx_noisy)
    stack = np.array([[0.1, -0.4], [0.2, 0.5], [0.3, 0.3], [0.0, 0.7]])
    concentrated_aod_objective(stack[[0, 1, 3]], *mats, s.geom)
    with pytest.raises(SingularConcentration):
        concentrated_aod_objective(stack, *mats, s.geom)


def test_aod_column_batch_matches_full_stacks(setup20):
    """Scoring one column against fixed others equals the full-stack
    objective on stacks that differ in that column only."""
    s = setup20
    mats = _aod_mats(s, s.rx_noisy)
    rng = np.random.default_rng(11)
    for n_paths in (1, 2, 3):
        theta = rng.uniform(-1.2, 1.2, n_paths)
        for q in range(n_paths):
            cands = rng.uniform(-1.4, 1.4, 17)
            column = ce._aod_column_objective(np.sin(theta), q, *mats, s.geom)
            stack = np.repeat(theta[None, :], cands.size, axis=0)
            stack[:, q] = cands
            batch = column(np.sin(cands))
            assert batch.shape == (17,)
            assert_allclose(batch,
                            concentrated_aod_objective(stack, *mats, s.geom),
                            rtol=1e-12)


def test_aod_column_batch_rejects_colliding_column(setup20):
    s = setup20
    mats = _aod_mats(s, s.rx_noisy)
    column = ce._aod_column_objective(np.array([0.3, -0.4]), 0, *mats, s.geom)
    cands = np.array([0.1, 0.2, -0.4, 0.5])
    column(cands[[0, 1, 3]])
    with pytest.raises(SingularConcentration):
        column(cands)


def test_aod_objective_matches_raw_form(setup20):
    """Concentrated objective equals the raw projected-residual form."""
    s = setup20
    rng = np.random.default_rng(9)
    y = rng.standard_normal((s.geom.n_bs, s.cfg.t1, s.cfg.n_subcarriers)) \
        + 1j * rng.standard_normal((s.geom.n_bs, s.cfg.t1, s.cfg.n_subcarriers))
    rx = np.concatenate(
        [y, np.zeros((s.geom.n_bs, s.cfg.t_total - s.cfg.t1,
                      s.cfg.n_subcarriers))], axis=1)
    theta = np.array([0.2, -0.45])
    s_mat, c_mat = _aod_mats(s, rx)
    simplified = ce._aod_column_objective(np.sin(theta), 1, s_mat, c_mat,
                                          s.geom)(np.sin(theta[1:]))[0]

    # raw form: residual after per-subcarrier LS gain fitting
    a_b = bs_steering(s.geom)
    a_m = ms_steering(s.geom, theta)
    x1 = s.pilots[:, :s.cfg.t1]
    total = 0.0
    const = 0.0
    for n in range(s.cfg.n_subcarriers):
        xt_blocks = [np.column_stack([np.outer(a_b, a_m[:, q].conj()) @ x1[:, t]
                                      for q in range(2)])
                     for t in range(s.cfg.t1)]
        gram = sum(x.conj().T @ x for x in xt_blocks)
        rhs = sum(xt_blocks[t].conj().T @ y[:, t, n]
                  for t in range(s.cfg.t1))
        dvec = np.linalg.solve(gram, rhs)
        for t in range(s.cfg.t1):
            resid = y[:, t, n] - xt_blocks[t] @ dvec
            total += np.linalg.norm(resid) ** 2
            const += np.linalg.norm(y[:, t, n]) ** 2
    assert abs((const - total) - simplified) < 1e-9 * abs(simplified)


def test_ris_aoa_ongrid_exact(ongrid):
    true, setup, rx = _ongrid_setup(ongrid)
    cfg = setup.cfg
    aoa = ce.estimate_ris_aoa(rx, setup, true.u)
    est = to_angles(ChannelParams(np.zeros(2), np.zeros(2), np.zeros(2),
                                  aoa.c, aoa.s))
    ref = to_angles(true)
    assert_allclose(np.sort(est.phi_in), np.sort(ref.phi_in), atol=1e-12)
    assert_allclose(np.sort(est.psi_in), np.sort(ref.psi_in), atol=1e-12)
    assert not np.any(aoa.clamped)
    # hybrid gains match the planted delay ramp
    ramp = ch.subcarrier_ramp(true.tau, cfg.bandwidth, cfg.n_subcarriers)
    for q in range(2):
        planted = true.gains[q] * ramp[:, q]
        match = np.min([np.max(np.abs(aoa.delta_tilde[i] - planted))
                        for i in range(2)])
        assert match < 1e-8 * np.abs(true.gains[q])


def test_ris_aoa_zero_difference(setup20):
    """Matching in/out legs produce the zero spatial-frequency column."""
    s = setup20
    c_out, s_out = s.setup.leg[2], s.setup.leg[1]
    params = ChannelParams(
        tau=s.true.tau[:1], gains=np.array([1e-6 + 0j]),
        u=s.true.u[:1], c=[c_out], s=[s_out])
    rx = synthesize_tensor(s.setup, params, noiseless=True)
    aoa = ce.estimate_ris_aoa(observe(rx, s.setup), s.setup, params.u)
    assert aoa.c[0] == pytest.approx(c_out, abs=1e-15)
    assert aoa.s[0] == pytest.approx(s_out, abs=1e-15)
    assert not aoa.clamped[0]


def test_estimate_toa_on_bin():
    cfg = ch.SystemConfig()
    n = cfg.n_subcarriers
    delta = 0.7 - 0.2j
    tau = 4.0 / cfg.bandwidth          # exactly on DFT bin 5
    ramp = np.exp(-2j * np.pi * np.arange(n) * tau * cfg.bandwidth / n)
    tau_hat, delta_hat, m_bin, dtau = ce.estimate_toa(delta * ramp, cfg)
    assert m_bin == 5
    assert abs(dtau) < 1e-18            # zero up to bracket-scale roundoff
    assert tau_hat == pytest.approx(tau, abs=1e-18)
    assert abs(delta_hat - delta) < 1e-12


def test_estimate_toa_default_delay():
    """Reference VLoS delay: bin 5 and sub-0.05 ns refinement."""
    cfg = ch.SystemConfig()
    tau = (np.sqrt(164.0) + np.sqrt(1855.25)) / 3e8       # 186.26 ns
    n = cfg.n_subcarriers
    delta = 1.3e-6 * np.exp(0.4j)
    ramp = np.exp(-2j * np.pi * np.arange(n) * tau * cfg.bandwidth / n)
    tau_hat, delta_hat, m_bin, _ = ce.estimate_toa(delta * ramp, cfg)
    assert m_bin == 5
    assert abs(tau_hat - tau) < 0.05e-9
    assert abs(np.angle(delta_hat / delta)) < 1e-6


def test_estimate_toa_rotation_non_decreasing():
    """The refined rotation never loses peak magnitude vs no rotation."""
    cfg = ch.SystemConfig()
    rng = np.random.default_rng(3)
    n = cfg.n_subcarriers
    k = np.arange(n)
    for _ in range(10):
        tau = rng.uniform(0.05, 0.9) * n / cfg.bandwidth
        d = np.exp(-2j * np.pi * k * tau * cfg.bandwidth / n) \
            + 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        tau_hat, _, m_bin, dtau = ce.estimate_toa(d, cfg)
        base = d * np.exp(2j * np.pi * k * (m_bin - 1) / n)
        mag0 = abs(np.sum(base))
        mag = abs(np.sum(np.exp(-2j * np.pi * k * dtau * cfg.bandwidth / n)
                         * base))
        assert mag >= mag0 - 1e-12


def test_estimate_toa_out_of_range():
    cfg = ch.SystemConfig()
    n = cfg.n_subcarriers
    # positive phase ramp implies a negative delay
    d = np.exp(+2j * np.pi * np.arange(n) * 0.01)
    with pytest.raises(OutOfRange):
        ce.estimate_toa(d, cfg)


def test_refine_aod_colliding_angles_rejected(setup20):
    """Duplicate departure angles make the concentration singular."""
    s = setup20
    with pytest.raises(SingularConcentration):
        ce.refine_aod_mle(s.obs_clean, s.setup, np.array([0.3, 0.3]))


def test_ris_aoa_block_too_short(setup20):
    """A phase block shorter than the path count cannot be de-mixed."""
    s = setup20
    import dataclasses
    cfg = dataclasses.replace(s.cfg, t1=34, n_blocks=3, v_slots=1)
    sched = ch.make_phase_schedule(cfg, s.geom.n_ris, 7)
    setup = ch.Setup(s.geom, cfg, s.pilots, sched)
    rx = synthesize_tensor(setup, s.true, 0)
    with pytest.raises(RankDeficient):
        ce.estimate_ris_aoa(observe(rx, setup), setup, s.true.u)


def test_associate_paths_convention():
    from rispos.harness import associate_paths
    est = np.array([0.8, 0.1])
    true = np.array([0.12, 0.79])
    perm = associate_paths(est, true)
    assert list(perm) == [1, 0]


def test_run_coarse_ongrid_end_to_end(ongrid):
    """Noiseless on-grid scenario: every parameter at grid resolution."""
    true, setup, rx = _ongrid_setup(ongrid)
    out = ce.run_coarse(rx, setup)
    est = out.params
    assert_allclose(est.u, true.u, atol=1e-9)
    assert_allclose(to_angles(est).phi_in, to_angles(true).phi_in, atol=1e-12)
    assert_allclose(to_angles(est).psi_in, to_angles(true).psi_in, atol=1e-12)
    assert np.max(np.abs(est.tau - true.tau)) < 1e-13
    assert np.max(np.abs(est.gains - true.gains)) < 1e-7 * np.max(
        np.abs(true.gains))
    # delay order puts the VLoS path, arriving from the far side, first
    assert np.pi <= to_angles(est).psi_in[0] <= 1.5 * np.pi
    assert est.tau[0] < est.tau[1]
