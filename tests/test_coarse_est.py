"""Sparse recovery, AOD refinement, RIS AOA recovery, and delay estimation."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import lone_aod_objective, sample_layout, spy_ascents
from oracles import (bs_steering, concentrated_aod_objective, dcs_somp,
                     dcs_somp_tensor, estimate_toa, ms_steering, observe,
                     refine_aod_cyclic, ris_aoa_loop, synthesize_tensor,
                     to_angles, trial_tensor)
from rispos import channel as ch
from rispos import _damping as dm
from rispos import coarse_est as ce
from rispos import geometry as gm
from rispos import harness as hn
from rispos.errors import (OutOfRange, RankDeficient,
                           SingularConcentration, SparsityInfeasible)
from rispos.params import ChannelParams


def test_dcs_somp_one_sparse_exact():
    rng = np.random.default_rng(0)
    theta = rng.standard_normal((12, 40)) + 1j * rng.standard_normal((12, 40))
    truth = 17
    coeff = np.array([2.0 - 1j, -0.5 + 0.3j, 1j])
    y = np.stack([theta[:, truth][:, None] * c for c in coeff])
    res = dcs_somp(y, theta, 1)
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
    res = dcs_somp(y, theta, 3)
    assert sorted(res.support) == support_true
    assert res.residual_norms[-1] < 1e-12


def test_dcs_somp_residual_monotone():
    rng = np.random.default_rng(2)
    theta = rng.standard_normal((16, 64)) + 1j * rng.standard_normal((16, 64))
    y = rng.standard_normal((5, 16, 2)) + 1j * rng.standard_normal((5, 16, 2))
    res = dcs_somp(y, theta, 8)
    assert np.all(np.diff(res.residual_norms) <= 1e-12)


def test_dcs_somp_sparsity_infeasible():
    theta = np.eye(4, dtype=complex)
    y = np.zeros((1, 4, 1), dtype=complex)
    with pytest.raises(SparsityInfeasible):
        dcs_somp(y, theta, 5)


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
    res = dcs_somp(y, theta, sparsity)
    ref = dcs_somp_tensor(y, theta, sparsity)
    assert res.support == ref.support
    assert sorted(res.support) == sorted(cols)
    assert res.coeffs.shape == (n_sub, sparsity, n_col)
    assert_allclose(res.coeffs, ref.coeffs, rtol=1e-12)
    assert_allclose(res.residual_norms, ref.residual_norms, rtol=1e-12,
                    atol=1e-12 * ref.residual_norms[0])


def test_coarse_stages_pick_the_oracle_columns():
    """Over 10 reference trials per power, built from their received
    tensors, the stages of stage ``aod_mle`` select the same dictionary
    columns as the correlation-tensor oracle: ``estimate_aod_coarse``
    from the observation's covariance as ``dcs_somp_tensor`` on the
    first T1 slots of the tensor, and ``estimate_ris_aoa`` as the
    per-block, per-path loop running ``dcs_somp_tensor``."""
    exp = hn.ExperimentConfig(n_trials=10, stage="aod_mle")
    setups = [hn.power_setup(exp, p) for p in exp.powers_dbm]

    def picks(oracle):
        calls, gains = [], []
        for p_idx, setup in enumerate(setups):
            t1 = setup.cfg.t1
            theta_m = setup.pilots[:, :t1].conj().T @ setup.a_m_dict.matrix
            for trial in range(exp.n_trials):
                _, y = trial_tensor(exp, setup, p_idx, trial)
                obs = observe(y, setup)
                if oracle:
                    support = dcs_somp_tensor(
                        y[:, :t1, :].conj().transpose(2, 1, 0), theta_m,
                        setup.n_paths).support
                    u_hat = setup.a_m_dict.grid[[support]]
                else:
                    u_hat, res = ce.estimate_aod_coarse(obs, setup)
                    (support,) = res.support
                calls.append(support)
                u_hat, _ = ce.refine_aod_mle(obs, setup, u_hat)
                aoa = (ris_aoa_loop(obs, setup, u_hat, dcs_somp_tensor)
                       if oracle else ce.estimate_ris_aoa(obs, setup, u_hat))
                calls.append((aoa.c.tolist(), aoa.s.tolist(),
                              aoa.clamped.tolist()))
                gains.append(aoa.delta_tilde)
        return calls, np.array(gains)

    fast, fast_gains = picks(False)
    assert len(fast) == 4 * 10 * 2
    ref, ref_gains = picks(True)
    assert fast == ref
    assert_allclose(fast_gains, ref_gains, rtol=1e-9, atol=0.0)


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
            ref = dcs_somp(y[:, :t1, :].conj().transpose(2, 1, 0),
                              theta_m, setup.n_paths)
            assert picks.support == [ref.support], (power, trial)
            assert_allclose(picks.residual_norms, [ref.residual_norms],
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
    (u_hat,), somp = ce.estimate_aod_coarse(rx, setup)
    expect = {int(np.argmin(np.abs(a_m.grid - u))) for u in true.u}
    assert set(somp.support[0]) == expect
    assert_allclose(np.sort(u_hat), np.sort(true.u), atol=1e-12)


def test_aod_coarse_offgrid_half_cell(setup20):
    """Off-grid truth recovered to within half a grid cell in sin space."""
    s = setup20
    (u_hat,), _ = ce.estimate_aod_coarse(s.obs_clean, s.setup)
    from rispos.harness import associate_paths
    perm = associate_paths(u_hat, s.true.u)
    gap = np.abs(u_hat[perm] - s.true.u)
    assert np.all(gap <= 1.0 / s.cfg.g_ms + 1e-12)


def test_refine_aod_mle_improves(setup20):
    s = setup20
    (u_grid,), _ = ce.estimate_aod_coarse(s.obs_clean, s.setup)
    (refined,), _ = ce.refine_aod_mle(s.obs_clean, s.setup, u_grid[None])
    from rispos.harness import associate_paths
    perm_c = associate_paths(u_grid, s.true.u)
    perm_r = associate_paths(refined, s.true.u)
    err_c = np.abs(u_grid[perm_c] - s.true.u)
    err_r = np.abs(refined[perm_r] - s.true.u)
    assert np.all(err_r < 0.1 * np.maximum(err_c, 1e-12))


def test_refine_aod_mle_fixed_point(setup20):
    s = setup20
    (refined,), _ = ce.refine_aod_mle(s.obs_clean, s.setup, s.true.u[None])
    assert np.max(np.abs(refined - s.true.u)) < 1e-9
    # objective change from the truth is negligible
    mats = _aod_mats(s, s.rx_clean)
    obj = concentrated_aod_objective(np.arcsin(refined), *mats, s.geom)
    t1 = concentrated_aod_objective(np.arcsin(s.true.u), *mats, s.geom)
    assert abs(obj - t1) <= 1e-8 * abs(t1)


def _refinements_against_oracle(monkeypatch, exp, trials):
    """Run ``trials`` of ``exp`` at every power and return, for each
    ``refine_aod_mle`` call, its sines and steps, whether every step was
    the undamped Newton step, and the oracle's sines from the same
    start."""
    calls = []
    refine = ce.refine_aod_mle

    def recorded(obs, setup, u_init):
        # a stack of the batch's trials: the last ascents are its rows
        sines, steps = refine(obs, setup, u_init)
        for k, (n_steps, _, candidates) in enumerate(ascents[-len(steps):]):
            calls.append((sines[k], steps[k], candidates == n_steps,
                          refine_aod_cyclic(obs.row(k), setup.row(k),
                                            u_init[k])))
        return sines, steps

    with monkeypatch.context() as m:
        ascents = spy_ascents(m, ce)
        m.setattr(ce, "refine_aod_mle", recorded)
        for p_idx, power in enumerate(exp.powers_dbm):
            setup = hn.power_setup(exp, power)
            for trial in trials:
                hn.run_trial(exp, power, p_idx, trial, setup)
    return calls


def test_refine_aod_mle_matches_the_cyclic_oracle(monkeypatch):
    """On the 200 trials of master seed 77 at 50 per power, the refined
    sines lie within 1e-7 of cyclic passes run to their fixed point, and
    undamped Newton steps converge from the grid picks on most of them."""
    exp = hn.ExperimentConfig(master_seed=77, n_trials=50, stage="aod_mle")
    calls = _refinements_against_oracle(monkeypatch, exp, range(50))
    assert len(calls) == 200
    gap = max(np.max(np.abs(sines - ref)) for sines, _, _, ref in calls)
    assert gap <= 1e-7, gap
    assert sum(undamped for _, _, undamped, _ in calls) >= 150


def test_refine_aod_mle_holds_an_end_fire_sine_on_its_bound(monkeypatch):
    """``sample_layout`` draw 2 (default_rng(11), master seed 5, 20 dBm)
    puts a path at end-fire: its grid pick is -1, where the gradient
    points out of [-1, 1]. That sine leaves the step space and stays at
    -1, undamped Newton steps converge on the other, the sines lie within
    1e-7 of the oracle, and SAGE converges from them."""
    rng = np.random.default_rng(11)
    for _ in range(3):
        geom = sample_layout(rng)
    exp = hn.ExperimentConfig(
        ms=geom.ms.tolist(), alpha_deg=float(np.rad2deg(geom.alpha)),
        scatterers=geom.scatterers.tolist(), powers_dbm=[20.0], n_trials=1,
        master_seed=5, stage="sage")
    [(sines, steps, undamped, ref)] = _refinements_against_oracle(
        monkeypatch, exp, [0])
    assert -1.0 in sines and undamped and 0 < steps < dm.MAX_STEPS
    assert np.max(np.abs(sines - ref)) <= 1e-7
    assert hn.run_trial(exp, 20.0, 0, 0).flags["sage_converged"]


def test_refine_aod_mle_matches_the_oracle_on_random_layouts(monkeypatch):
    """On 60 ``sample_layout`` draws (default_rng(11), master seed 5,
    20 dBm), end-fire paths included, the refined sines stay in [-1, 1]
    and lie within 1e-7 of the cyclic oracle's."""
    rng = np.random.default_rng(11)
    calls = []
    for _ in range(60):
        geom = sample_layout(rng)
        exp = hn.ExperimentConfig(
            ms=geom.ms.tolist(), alpha_deg=float(np.rad2deg(geom.alpha)),
            scatterers=geom.scatterers.tolist(), powers_dbm=[20.0],
            n_trials=1, master_seed=5, stage="aod_mle")
        calls += _refinements_against_oracle(monkeypatch, exp, [0])
    assert len(calls) == 60
    assert all(np.all(np.abs(sines) <= 1.0) for sines, *_ in calls)
    gap = max(np.max(np.abs(sines - ref)) for sines, _, _, ref in calls)
    assert gap <= 1e-7, gap


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
    """The package objective on stacks that differ in one column only, as
    a cyclic pass scores them, equals the oracle's full-stack objective."""
    s = setup20
    mats = _aod_mats(s, s.rx_noisy)
    objective = lone_aod_objective(*mats, s.geom)
    rng = np.random.default_rng(11)
    for n_paths in (1, 2, 3):
        theta = rng.uniform(-1.2, 1.2, n_paths)
        for q in range(n_paths):
            cands = rng.uniform(-1.4, 1.4, 17)
            stack = np.repeat(theta[None, :], cands.size, axis=0)
            stack[:, q] = cands
            batch = objective(np.sin(stack))
            assert batch.shape == (17,)
            assert_allclose(batch,
                            concentrated_aod_objective(stack, *mats, s.geom),
                            rtol=1e-12)


def test_aod_column_batch_rejects_colliding_column(setup20):
    s = setup20
    mats = _aod_mats(s, s.rx_noisy)
    objective = lone_aod_objective(*mats, s.geom)
    stack = np.array([[0.1, -0.4], [0.2, -0.4], [-0.4, -0.4], [0.5, -0.4]])
    objective(stack[[0, 1, 3]])
    with pytest.raises(SingularConcentration):
        objective(stack)


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
    simplified = lone_aod_objective(s_mat, c_mat, s.geom)(
        np.sin(theta)[None, :])[0]

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
    aoa = ce.estimate_ris_aoa(rx, setup, true.u[None])
    est = to_angles(ChannelParams(np.zeros(2), np.zeros(2), np.zeros(2),
                                  aoa.c[0], aoa.s[0]))
    ref = to_angles(true)
    assert_allclose(np.sort(est.phi_in), np.sort(ref.phi_in), atol=1e-12)
    assert_allclose(np.sort(est.psi_in), np.sort(ref.psi_in), atol=1e-12)
    assert not np.any(aoa.clamped)
    # hybrid gains match the planted delay ramp
    ramp = ch.subcarrier_ramp(true.tau, cfg.bandwidth, cfg.n_subcarriers)
    for q in range(2):
        planted = true.gains[q] * ramp[:, q]
        match = np.min([np.max(np.abs(aoa.delta_tilde[0, i] - planted))
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
    aoa = ce.estimate_ris_aoa(observe(rx, s.setup), s.setup, params.u[None])
    assert aoa.c[0, 0] == pytest.approx(c_out, abs=1e-15)
    assert aoa.s[0, 0] == pytest.approx(s_out, abs=1e-15)
    assert not aoa.clamped[0, 0]


def _sweep_observations(exp, setup, p_idx, n_trials):
    """Observations of the first sweep trials at one power, drawn from
    the seeds ``harness.run_trial`` uses, with their coarse departure
    sines."""
    for trial in range(n_trials):
        gain_seed, noise_seed = np.random.SeedSequence(
            (exp.master_seed, hn._TAG_TRIAL, p_idx, trial)).spawn(2)
        true = gm.true_channel_params(setup.geom, ch.draw_gains(
            setup.cfg, setup.geom, np.random.default_rng(gain_seed)))
        obs = ch.synthesize_rx(
            setup, dataclasses.replace(true, gains=true.gains[None]),
            [np.random.default_rng(noise_seed)])
        yield obs, ce.estimate_aod_coarse(obs, setup)[0]


def _assert_same_aoa(aoa, ref, what):
    assert aoa.c.tolist() == ref.c.tolist(), what
    assert aoa.s.tolist() == ref.s.tolist(), what
    assert aoa.clamped.tolist() == ref.clamped.tolist(), what
    gap = np.linalg.norm(aoa.delta_tilde - ref.delta_tilde, axis=2)
    assert np.all(gap <= 1e-12 * np.linalg.norm(ref.delta_tilde, axis=2)), what


def test_batched_ris_aoa_matches_the_per_path_loop():
    """On 50 sweep trials per power (master seed 77), the one-solve,
    one-product arrival step makes the per-block, per-path loop's picks
    and clamps, its hybrid gains within 1e-12 relative."""
    exp = hn.ExperimentConfig(master_seed=77)
    n_draws = 0
    for p_idx, power in enumerate(exp.powers_dbm):
        setup = hn.power_setup(exp, power)
        for trial, (obs, u_hat) in enumerate(
                _sweep_observations(exp, setup, p_idx, 50)):
            _assert_same_aoa(ce.estimate_ris_aoa(obs, setup, u_hat),
                             ris_aoa_loop(obs, setup, u_hat), (power, trial))
            n_draws += 1
    assert n_draws == 200


@pytest.mark.parametrize("layout", ["permuted", "unequal"])
def test_batched_ris_aoa_on_irregular_schedules(layout):
    """Phase blocks need neither contiguous slots nor equal lengths: on a
    schedule with its slots permuted, and on one with blocks of 2 to 10
    slots, the arrival step makes the loop's picks."""
    exp = hn.ExperimentConfig(master_seed=77)
    base = hn.power_setup(exp, 20.0)
    rng = np.random.default_rng(5)
    if layout == "permuted":
        slot_block = rng.permutation(base.sched.slot_block)
    else:
        lengths = [10, 2, 5, 3, 4, 2, 7, 4]
        slot_block = np.repeat(np.arange(len(lengths)), lengths)
        slot_block = slot_block[rng.permutation(slot_block.size)]
    assert slot_block.size == base.cfg.t_total
    assert np.any(np.diff(slot_block) < 0)          # blocks interleave
    sched = ch.PhaseSchedule(base.sched.block_phases, slot_block)
    setup = ch.Setup(base.geom, base.cfg, base.pilots, sched)
    for trial, (obs, u_hat) in enumerate(
            _sweep_observations(exp, setup, 3, 20)):
        _assert_same_aoa(ce.estimate_ris_aoa(obs, setup, u_hat),
                         ris_aoa_loop(obs, setup, u_hat), trial)


def test_ris_aoa_colliding_departures_rank_deficient(setup20):
    """Equal departure sines leave every block's mixing Gram singular."""
    s = setup20
    u_hat = np.array([[0.3, 0.3]])
    with pytest.raises(RankDeficient):
        ris_aoa_loop(s.obs_noisy, s.setup, u_hat)
    (error,) = ce.estimate_ris_aoa(s.obs_noisy, s.setup, u_hat).errors
    assert type(error) is RankDeficient


def _toa_one_path(d, setup):
    """``estimate_toa`` on one path's gains d: (tau_hat, delta_hat, the
    1-based DFT bin, bin delay - tau_hat). At a bracket end tau_hat is
    (m +- 1/2) / B, which names no bin, so the bin is d's DFT peak, checked
    to lie within half a bin of tau_hat."""
    est = ce.estimate_toa(d[None, None, :], setup)
    assert est.errors == [None]
    ((tau_hat,),), ((delta_hat,),) = est.tau, est.gains
    m0 = int(np.argmax(np.abs(np.fft.ifft(d))))
    bw = setup.cfg.bandwidth
    assert abs(tau_hat * bw - m0) <= 0.5 + 1e-12
    return tau_hat, delta_hat, m0 + 1, m0 / bw - tau_hat


def test_estimate_toa_matches_brute_force(setup20):
    """On 200 random (delay, noise) draws, a quarter of them within 0.05
    bin of a bracket end, the delay step lands within 1e-6 bin of a
    4,001-point scan of the rotation bracket plus a parabolic step
    through its best triple (the scan's end point when that is best)."""
    cfg = ch.SystemConfig()
    n, bw = cfg.n_subcarriers, cfg.bandwidth
    k = np.arange(n)
    half = 1.0 / (2.0 * bw)
    xs = np.linspace(-half, half, 4001)
    rng = np.random.default_rng(2024)
    for draw in range(200):
        frac = (rng.uniform(-0.05, 0.05) + rng.choice([-0.5, 0.5])
                if draw % 4 == 0 else rng.uniform(-0.5, 0.5))
        tau = (rng.integers(2, n - 2) + frac) / bw
        noise = rng.uniform(0.0, 0.3)
        d = (np.exp(2j * np.pi * rng.uniform()) * np.exp(
            -2j * np.pi * k * tau * bw / n)
             + noise * (rng.standard_normal(n)
                        + 1j * rng.standard_normal(n)) / np.sqrt(2.0))
        _, _, m_bin, dtau = _toa_one_path(d, setup20.setup)

        base = d * np.exp(2j * np.pi * k * (m_bin - 1) / n)
        vals = np.abs(np.exp(-2j * np.pi * np.multiply.outer(xs, k) * bw / n)
                      @ base)
        j = int(np.argmax(vals))
        best = xs[j]
        if 0 < j < xs.size - 1:
            v1, v2, v3 = vals[j - 1:j + 2]
            best += 0.5 * (xs[1] - xs[0]) * (v1 - v3) / (v1 - 2.0 * v2 + v3)
        assert abs(dtau - best) * bw < 1e-6, (draw, tau * bw, noise)


def test_estimate_toa_on_bin(setup20):
    cfg = ch.SystemConfig()
    n = cfg.n_subcarriers
    delta = 0.7 - 0.2j
    tau = 4.0 / cfg.bandwidth          # exactly on DFT bin 5
    ramp = np.exp(-2j * np.pi * np.arange(n) * tau * cfg.bandwidth / n)
    tau_hat, delta_hat, m_bin, dtau = _toa_one_path(delta * ramp,
                                                    setup20.setup)
    assert m_bin == 5
    assert abs(dtau) < 1e-18            # zero up to bracket-scale roundoff
    assert tau_hat == pytest.approx(tau, abs=1e-18)
    assert abs(delta_hat - delta) < 1e-12


def test_estimate_toa_default_delay(setup20):
    """Reference VLoS delay: bin 5 and sub-0.05 ns refinement."""
    cfg = ch.SystemConfig()
    tau = (np.sqrt(164.0) + np.sqrt(1855.25)) / 3e8       # 186.26 ns
    n = cfg.n_subcarriers
    delta = 1.3e-6 * np.exp(0.4j)
    ramp = np.exp(-2j * np.pi * np.arange(n) * tau * cfg.bandwidth / n)
    tau_hat, delta_hat, m_bin, _ = _toa_one_path(delta * ramp, setup20.setup)
    assert m_bin == 5
    assert abs(tau_hat - tau) < 0.05e-9
    assert abs(np.angle(delta_hat / delta)) < 1e-6


def test_estimate_toa_rotation_non_decreasing(setup20):
    """The refined rotation never loses peak magnitude vs no rotation."""
    cfg = ch.SystemConfig()
    rng = np.random.default_rng(3)
    n = cfg.n_subcarriers
    k = np.arange(n)
    for _ in range(10):
        tau = rng.uniform(0.05, 0.9) * n / cfg.bandwidth
        d = np.exp(-2j * np.pi * k * tau * cfg.bandwidth / n) \
            + 0.1 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        tau_hat, _, m_bin, dtau = _toa_one_path(d, setup20.setup)
        base = d * np.exp(2j * np.pi * k * (m_bin - 1) / n)
        mag0 = abs(np.sum(base))
        mag = abs(np.sum(np.exp(-2j * np.pi * k * dtau * cfg.bandwidth / n)
                         * base))
        assert mag >= mag0 - 1e-12


def test_estimate_toa_out_of_range(setup20):
    cfg = ch.SystemConfig()
    n = cfg.n_subcarriers
    # positive phase ramp implies a negative delay
    d = np.exp(+2j * np.pi * np.arange(n) * 0.01)
    (error,) = ce.estimate_toa(d[None, None, :], setup20.setup).errors
    assert type(error) is OutOfRange


def _grid_stage_rows(stage, s):
    """Three one-record inputs of one grid stage, the middle one failing,
    and the stage as a map from a list of them, stacked, to its result."""
    if stage == "picks":
        rng = np.random.default_rng(8)
        theta = _complex_normal(rng, 8, 20)
        theta[:, 1] = theta[:, 0]
        ys = [_complex_normal(rng, 8, 30) for _ in range(2)]
        # a zero record picks columns 0 and 1, which are one column twice
        rows = [ys[0] @ ys[0].conj().T, np.zeros((8, 8), complex),
                ys[1] @ ys[1].conj().T]
        return rows, lambda x: ce.pick_columns(np.stack(x), theta, 3)
    if stage == "ris_aoa":
        rows = [(s.obs_noisy, s.true.u), (s.obs_noisy, np.array([0.3, 0.3])),
                (s.obs_clean, s.true.u)]

        def run(x):
            obs = ch.Observation(np.concatenate([o.pa for o, _ in x]),
                                 np.concatenate([o.cov1 for o, _ in x]))
            return ce.estimate_ris_aoa(obs, s.setup,
                                       np.stack([u for _, u in x]))
        return rows, run
    good = [ce.estimate_ris_aoa(obs, s.setup, s.true.u[None]).delta_tilde[0]
            for obs in (s.obs_noisy, s.obs_clean)]
    # flat gains peak at DFT bin 0: delay 0, outside (0, 1)
    rows = [good[0], np.ones_like(good[0]), good[1]]
    return rows, lambda x: ce.estimate_toa(np.stack(x), s.setup)


@pytest.mark.parametrize("stage,error", [
    ("picks", RankDeficient), ("ris_aoa", RankDeficient),
    ("toa", OutOfRange)], ids=["picks", "ris_aoa", "toa"])
def test_stacked_grid_stage_keeps_a_failing_row_to_itself(stage, error,
                                                          setup20):
    """A grid stage on a stack runs each row as on a stack of one: with
    a failing row between two good ones, each good row equals its stack
    of one bit for bit, and the failing row carries the typed error that
    its stack of one returns in ``errors[0]``, class and message, without
    stopping the others."""
    _assert_rows_equal_lone_calls(*_grid_stage_rows(stage, setup20), error)


def _assert_rows_equal_lone_calls(rows, run, error):
    """``run`` on the list ``rows`` gives each good row the bits of
    ``run`` on that row alone, and the failing middle row the ``error``
    that ``run`` on it alone returns without raising."""
    stacked = run(rows)
    assert [e is None for e in stacked.errors] == [True, False, True]
    for k, row in enumerate(rows):
        alone = run([row])
        if k == 1:
            assert type(alone.errors[0]) is error
            assert type(stacked.errors[k]) is error
            assert str(stacked.errors[k]) == str(alone.errors[0])
            continue
        assert alone.errors == [None]
        for f in dataclasses.fields(alone):
            if f.name != "errors":
                assert (np.asarray(getattr(stacked, f.name)[k]).tobytes()
                        == np.asarray(getattr(alone, f.name)[0]).tobytes()), (
                            k, f.name)


def _three_power_records():
    """The setups of -10, 0 and 20 dBm of one sweep, their stacked setup,
    and one observation at each power, drawn as a stack of one on its own
    setup."""
    exp = hn.ExperimentConfig(master_seed=77)
    setups = hn.power_setups(exp, [-10.0, 0.0, 20.0])
    obs = []
    for k, setup in enumerate(setups):
        true, _ = setup.truth(ch.draw_gains(setup.cfg, setup.geom, k)[None])
        obs.append(ch.synthesize_rx(setup, true, [10 + k]))
    return setups, ch.Setup.stack(setups), obs


def _per_row_setup_rows(stage):
    """Three one-record inputs of one stage, each at its own power, the
    middle one failing, and the stage as a map from a list of them, on
    per-row setup arrays, or from a list of one, on its own setup."""
    setups, stack, obs = _three_power_records()
    if stage == "picks":
        # a zero record over a dictionary whose columns 0 and 1 are one
        # column picks that column twice
        dicts = [s.aod_proj for s in setups]
        dicts[1] = dicts[1].copy()
        dicts[1][:, 1] = dicts[1][:, 0]
        covs = [obs[0].cov1[0], np.zeros_like(obs[1].cov1[0]), obs[2].cov1[0]]
        rows = list(zip(covs, dicts))
        return rows, lambda x: ce.pick_columns(
            np.stack([c for c, _ in x]), np.stack([d for _, d in x]), 3)
    u_true = setups[0].true_unit.u
    sines = [u_true, np.array([0.3, 0.3]), u_true]     # one colliding pair
    rows = list(zip(obs, setups, sines))

    def run(x):
        stacked = ch.Observation(np.concatenate([o.pa for o, _, _ in x]),
                                 np.concatenate([o.cov1 for o, _, _ in x]))
        setup = x[0][1] if len(x) == 1 else stack
        return ce.estimate_ris_aoa(stacked, setup,
                                   np.stack([u for _, _, u in x]))
    return rows, run


@pytest.mark.parametrize("stage", ["picks", "ris_aoa"])
def test_per_row_setup_keeps_each_row_to_its_power(stage):
    """A stacked setup (``Setup.stack``) gives each row its own power's
    pilots and projected AOD dictionary: the DCS-SOMP picks over a
    (K, M, G) dictionary and the RIS arrival at per-row pilots give each
    good row the bits of its stack of one on its own setup, and the
    failing middle row the error of its stack of one, class and
    message."""
    _assert_rows_equal_lone_calls(*_per_row_setup_rows(stage), RankDeficient)


def test_run_coarse_on_a_stacked_setup_equals_lone_calls():
    """``run_coarse`` on records at three powers with their stacked setup
    gives each record the estimate of its stack of one on its own setup,
    the AOD refinement included, which runs on the record's own setup."""
    setups, stack, obs = _three_power_records()
    assert [stack.row(k) for k in range(3)] == setups
    assert setups[0].row(2) is setups[0]
    stacked = ce.run_coarse(ch.Observation(
        np.concatenate([o.pa for o in obs]),
        np.concatenate([o.cov1 for o in obs])), stack)
    assert stacked.errors == [None] * 3
    for k, setup in enumerate(setups):
        alone = ce.run_coarse(obs[k], setup)
        assert alone.errors == [None]
        alone, row = alone.row(0), stacked.row(k)
        for f in dataclasses.fields(alone.params):
            assert (getattr(row.params, f.name).tobytes()
                    == getattr(alone.params, f.name).tobytes()), (k, f.name)
        assert row.flags == alone.flags


def test_stack_takes_setups_of_one_sweep_alone():
    """Setups built apart share no arrays, so they do not stack."""
    exp = hn.ExperimentConfig()
    with pytest.raises(ValueError):
        ch.Setup.stack([hn.power_setup(exp, 0.0), hn.power_setup(exp, 20.0)])


def test_run_coarse_keeps_a_refinement_error_to_its_row(monkeypatch,
                                                         setup20):
    """With the AOD refinement's start colliding on the middle of three
    stacked records (its picks give one sine twice), the stacked
    refinement raises and ``run_coarse`` refines each record alone: each
    other record gets the estimate of its stack of one bit for bit,
    parameters and flags, and the middle one the error that its stack of
    one returns in ``errors[0]``, class and message."""
    s = setup20
    rows = [s.obs_noisy, s.obs_clean, ch.synthesize_rx(
        s.setup, dataclasses.replace(s.true, gains=s.true.gains[None]), [4])]
    picks = ce.estimate_aod_coarse

    def colliding(obs, setup):
        u_hat, res = picks(obs, setup)
        for k, pa in enumerate(obs.pa):
            if np.array_equal(pa, rows[1].pa[0]):
                u_hat[k] = u_hat[k, 0]
        return u_hat, res

    monkeypatch.setattr(ce, "estimate_aod_coarse", colliding)
    stacked = ce.run_coarse(ch.Observation(
        np.concatenate([o.pa for o in rows]),
        np.concatenate([o.cov1 for o in rows])), s.setup)
    assert [e is None for e in stacked.errors] == [True, False, True]
    (error,) = ce.run_coarse(rows[1], s.setup).errors
    assert type(error) is SingularConcentration
    assert type(stacked.errors[1]) is type(error)
    assert str(stacked.errors[1]) == str(error) == "departure angles collide"
    for k in (0, 2):
        alone = ce.run_coarse(rows[k], s.setup)
        assert alone.errors == [None]
        alone, row = alone.row(0), stacked.row(k)
        for f in dataclasses.fields(alone.params):
            assert (getattr(row.params, f.name).tobytes()
                    == getattr(alone.params, f.name).tobytes()), (k, f.name)
        assert row.flags == alone.flags
        assert type(row.flags["aod_steps"]) is int


def test_run_coarse_returns_a_failing_records_error(setup20):
    """A stack of one whose record fails returns normally: a zero record,
    whose delays fall on DFT bin 0, gets ``OutOfRange`` in ``errors[0]``,
    with the AOD refinement and without it."""
    s = setup20
    zero = ch.Observation(np.zeros_like(s.obs_clean.pa),
                          np.zeros_like(s.obs_clean.cov1))
    for refine_aod in (True, False):
        (error,) = ce.run_coarse(zero, s.setup, refine_aod).errors
        assert type(error) is OutOfRange
        assert str(error) == "normalized delay 0.0 outside (0, 1)"


def _assert_toa_matches_search(gains, setup, what):
    """``estimate_toa`` on the rows of ``gains`` (paths, N) against the
    half-bin search oracle path by path: the same ``OutOfRange`` outcome,
    delays within 1e-9 bin and gains within 1e-9 relative. Returns
    whether the oracle raised."""
    est = ce.estimate_toa(gains[None], setup)
    try:
        ref = [estimate_toa(row, setup.cfg) for row in gains]
    except OutOfRange:
        assert type(est.errors[0]) is OutOfRange
        return True
    assert est.errors == [None]
    (tau,), (delta,) = est.tau, est.gains
    ref_tau = np.array([r[0] for r in ref])
    ref_delta = np.array([r[1] for r in ref])
    assert np.max(np.abs(tau - ref_tau)) * setup.cfg.bandwidth <= 1e-9, what
    assert np.max(np.abs(delta - ref_delta) / np.abs(ref_delta)) <= 1e-9, what
    return False


def test_estimate_toa_matches_the_search_oracle():
    """On the hybrid gains of the 800 trials of master seed 77 (200 per
    power, coarse departure sines), the search-free delay step matches
    the per-path half-bin ``maximize_1d`` search of the oracle: delays
    within 1e-9 bin, gains within 1e-9 relative, the same ``OutOfRange``
    outcome. So it does on 200 single-path draws with delays within a
    bin of 0 or N / B, about a quarter of which the oracle rejects."""
    exp = hn.ExperimentConfig(master_seed=77)
    n_trials = 0
    for p_idx, power in enumerate(exp.powers_dbm):
        setup = hn.power_setup(exp, power)
        for trial, (obs, u_hat) in enumerate(
                _sweep_observations(exp, setup, p_idx, exp.n_trials)):
            aoa = ce.estimate_ris_aoa(obs, setup, u_hat)
            _assert_toa_matches_search(aoa.delta_tilde[0], setup,
                                       (power, trial))
            n_trials += 1
    assert n_trials == 800

    n, bw = setup.cfg.n_subcarriers, setup.cfg.bandwidth
    k = np.arange(n)
    rng = np.random.default_rng(2025)
    raised = 0
    for draw in range(200):
        x = rng.uniform(-1.0, 1.0) + (n if draw % 2 else 0)
        d = (np.exp(-2j * np.pi * k * x / n)
             + 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n)))
        raised += _assert_toa_matches_search(d[None, :], setup, draw)
    assert 25 <= raised <= 100


def test_refine_aod_colliding_angles_rejected(setup20):
    """Duplicate departure angles make the concentration singular."""
    s = setup20
    with pytest.raises(SingularConcentration):
        ce.refine_aod_mle(s.obs_clean, s.setup, np.array([[0.3, 0.3]]))


def test_ris_aoa_block_too_short(setup20):
    """A phase block shorter than the path count cannot be de-mixed."""
    s = setup20
    import dataclasses
    cfg = dataclasses.replace(s.cfg, t1=34, n_blocks=3, v_slots=1)
    sched = ch.make_phase_schedule(cfg, s.geom.n_ris, 7)
    setup = ch.Setup(s.geom, cfg, s.pilots, sched)
    rx = synthesize_tensor(setup, s.true, 0)
    with pytest.raises(RankDeficient):
        ce.estimate_ris_aoa(observe(rx, setup), setup, s.true.u[None])


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
    assert out.errors == [None]
    est = out.row(0).params
    assert_allclose(est.u, true.u, atol=1e-9)
    assert_allclose(to_angles(est).phi_in, to_angles(true).phi_in, atol=1e-12)
    assert_allclose(to_angles(est).psi_in, to_angles(true).psi_in, atol=1e-12)
    assert np.max(np.abs(est.tau - true.tau)) < 1e-13
    assert np.max(np.abs(est.gains - true.gains)) < 1e-7 * np.max(
        np.abs(true.gains))
    # delay order puts the VLoS path, arriving from the far side, first
    assert np.pi <= to_angles(est).psi_in[0] <= 1.5 * np.pi
    assert est.tau[0] < est.tau[1]
