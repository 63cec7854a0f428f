"""Global likelihood, complete-data reconstruction, and coordinate ascent."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (build_channel, channel_params_from_vector,
                     gain_closed_form, reconstruct_complete_data,
                     single_path_objective)
from rispos import channel as ch
from rispos import coarse_est as ce
from rispos import geometry as gm
from rispos import sage as sg
from rispos.params import ChannelParams


def _loglik_reference(params, rx, pilots, sched, geom, cfg):
    """||Y||^2 - ||Y - model||^2 with the model built channel-by-channel."""
    total = 0.0
    for n in range(1, cfg.n_subcarriers + 1):
        y_n = rx[:, :, n - 1]
        mu = np.column_stack([
            build_channel(cfg, geom, params, sched.slot_phases[t], n)
            @ pilots[:, t] for t in range(cfg.t_total)])
        total += np.linalg.norm(y_n) ** 2 - np.linalg.norm(y_n - mu) ** 2
    return total


def _random_params(s, rng):
    n_paths = 2
    return ChannelParams(
        tau=rng.uniform(0.05, 0.9, n_paths) * s.cfg.n_subcarriers
        / s.cfg.bandwidth,
        gains=1e-6 * (rng.standard_normal(n_paths)
                      + 1j * rng.standard_normal(n_paths)),
        theta_t=rng.uniform(-1.2, 1.2, n_paths),
        phi_in=rng.uniform(0.3, 2.8, n_paths),
        psi_in=rng.uniform(np.pi / 2, 1.5 * np.pi, n_paths))


def test_loglik_matches_residual_form(setup20):
    """Double-sum expression equals the norm form on random inputs."""
    s = setup20
    rng = np.random.default_rng(0)
    shape = (s.geom.n_bs, s.cfg.t_total, s.cfg.n_subcarriers)
    for _ in range(5):
        params = _random_params(s, rng)
        y = 1e-5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        lam = sg.global_log_likelihood(params, y, s.setup)
        ref = _loglik_reference(params, y, s.pilots, s.sched, s.geom, s.cfg)
        assert abs(lam - ref) < 1e-8 * max(abs(ref), 1e-30)


def test_loglik_zero_gain(setup20):
    s = setup20
    silent = s.true.copy()
    silent.gains[:] = 0.0
    lam = sg.global_log_likelihood(silent, s.rx_noisy, s.setup)
    assert lam == 0.0


def test_loglik_local_optimality_at_truth(setup20):
    s = setup20
    lam0 = sg.global_log_likelihood(s.true, s.rx_clean, s.setup)
    rng = np.random.default_rng(1)
    vec0 = s.true.to_vector()
    scales = np.tile([1e-10, 1e-8, 1e-8, 1e-4, 1e-4, 1e-4], 2)
    for _ in range(100):
        vec = vec0 + scales * rng.standard_normal(vec0.size)
        pert = channel_params_from_vector(vec)
        lam = sg.global_log_likelihood(pert, s.rx_clean, s.setup)
        assert lam <= lam0 + 1e-10 * abs(lam0)


def test_reconstruct_single_path_identity(setup20):
    s = setup20
    single = ChannelParams(
        tau=s.true.tau[:1], gains=s.true.gains[:1],
        theta_t=s.true.theta_t[:1], phi_in=s.true.phi_in[:1],
        psi_in=s.true.psi_in[:1])
    rx = ch.synthesize_rx(s.setup, single, noise_seed=5)
    y_0 = reconstruct_complete_data(rx, single, 0, s.setup)
    assert np.array_equal(y_0, rx)


def test_reconstruct_recovers_planted_path(setup20):
    s = setup20
    for q in range(2):
        only_q = s.true.copy()
        only_q.gains = s.true.gains.copy()
        only_q.gains[1 - q] = 0.0
        planted = ch.synthesize_rx(s.setup, only_q, noiseless=True)
        y_q = reconstruct_complete_data(s.rx_clean, s.true, q, s.setup)
        scale = np.max(np.abs(planted))
        assert np.max(np.abs(y_q - planted)) < 1e-10 * scale


def test_reconstruct_sum_identity(setup20):
    s = setup20
    prob = sg.SageProblem(s.rx_noisy, s.setup)
    y_0 = prob.complete_data(s.true, 0)
    others = s.true.copy()
    others.gains[0] = 0.0
    interference = prob.a_b[:, None, None] * ch.model_field(others, s.setup)
    scale = np.max(np.abs(s.rx_noisy))
    assert np.max(np.abs(y_0 + interference - s.rx_noisy)) < 1e-15 * scale


def _planted_single(s, seed=None):
    only = s.true.copy()
    only.gains = s.true.gains.copy()
    only.gains[1] = 0.0
    rx = ch.synthesize_rx(s.setup, only, noiseless=True)
    return only, rx


def test_gain_closed_form_recovers_planted(setup20):
    s = setup20
    only, rx = _planted_single(s)
    d_hat = gain_closed_form(rx, only.tau[0], only.theta_t[0],
                             only.phi_in[0], only.psi_in[0], s.setup)
    assert abs(d_hat - only.gains[0]) < 1e-10 * abs(only.gains[0])


def test_gain_closed_form_linearity(setup20):
    s = setup20
    only, rx = _planted_single(s)
    args = (only.tau[0], only.theta_t[0], only.phi_in[0], only.psi_in[0],
            s.setup)
    d1 = gain_closed_form(rx, *args)
    c = 0.7 - 2.3j
    d2 = gain_closed_form(c * rx, *args)
    assert abs(d2 - c * d1) < 1e-14 * abs(d1)


def test_gain_trace_form_identity(setup20):
    """Trace and beamformed-vector numerators agree (gain closed form)."""
    s = setup20
    rng = np.random.default_rng(2)
    shape = (s.geom.n_bs, s.cfg.t_total, s.cfg.n_subcarriers)
    y_q = 1e-5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    params = _random_params(s, rng)
    q = 0
    d_vec = gain_closed_form(y_q, params.tau[q], params.theta_t[q],
                             params.phi_in[q], params.psi_in[q], s.setup)

    a_b = ch.bs_steering(s.geom, s.setup.known_angles[0])
    a_m = ch.ms_steering(s.geom, params.theta_t[q])
    a_r = ch.ris_diff_steering(s.geom, params.phi_in[q], params.psi_in[q],
                               *s.setup.known_angles[1:])
    sigma = s.sched.slot_phases @ a_r
    h_q = np.outer(a_b, a_m.conj())
    num = 0.0
    den = 0.0
    for n in range(s.cfg.n_subcarriers):
        hxs = h_q @ s.pilots @ np.diag(sigma)
        phase = np.exp(2j * np.pi * params.tau[q] * n * s.cfg.bandwidth
                       / s.cfg.n_subcarriers)
        num += phase * np.trace(hxs.conj().T @ y_q[:, :, n])
        den += np.trace(hxs.conj().T @ hxs)
    assert abs(d_vec - num / den) < 1e-10 * abs(d_vec)


def test_objective_dominance_at_truth(setup20):
    s = setup20
    only, rx = _planted_single(s)
    f_true = single_path_objective(rx, only.tau[0], only.theta_t[0],
                                   only.phi_in[0], only.psi_in[0], s.setup)
    rng = np.random.default_rng(3)
    for _ in range(100):
        tau = rng.uniform(0.05, 0.9) * s.cfg.n_subcarriers / s.cfg.bandwidth
        th = rng.uniform(-1.2, 1.2)
        ph = rng.uniform(0.3, 2.8)
        ps = rng.uniform(np.pi / 2, 1.5 * np.pi)
        f = single_path_objective(rx, tau, th, ph, ps, s.setup)
        assert f <= f_true * (1 + 1e-12)


def test_objective_phase_invariance(setup20):
    s = setup20
    only, rx = _planted_single(s)
    f1 = single_path_objective(rx, only.tau[0], only.theta_t[0],
                               only.phi_in[0], only.psi_in[0], s.setup)
    f2 = single_path_objective(np.exp(1.1j) * rx, only.tau[0],
                               only.theta_t[0], only.phi_in[0],
                               only.psi_in[0], s.setup)
    assert abs(f1 - f2) < 1e-12 * abs(f1)


def test_concentrated_equals_substituted_likelihood(setup20):
    """F equals the two-term likelihood at the closed-form gain."""
    s = setup20
    rng = np.random.default_rng(4)
    shape = (s.geom.n_bs, s.cfg.t_total, s.cfg.n_subcarriers)
    for _ in range(5):
        y_q = 1e-5 * (rng.standard_normal(shape)
                      + 1j * rng.standard_normal(shape))
        params = _random_params(s, rng)
        args = (params.tau[0], params.theta_t[0], params.phi_in[0],
                params.psi_in[0], s.setup)
        f_val = single_path_objective(y_q, *args)
        delta = gain_closed_form(y_q, *args)
        single = ChannelParams(
            tau=params.tau[:1], gains=np.array([delta]),
            theta_t=params.theta_t[:1], phi_in=params.phi_in[:1],
            psi_in=params.psi_in[:1])
        l_val = sg.global_log_likelihood(single, y_q, s.setup)
        assert abs(l_val - f_val) < 1e-8 * max(abs(f_val), 1e-30)


def test_gain_stationarity(setup20):
    """dL/d(conj gain) vanishes at the closed-form gain."""
    s = setup20
    rng = np.random.default_rng(5)
    shape = (s.geom.n_bs, s.cfg.t_total, s.cfg.n_subcarriers)
    y_q = 1e-5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    params = _random_params(s, rng)
    prob = sg.SageProblem(y_q, s.setup)
    r = prob.derotated(ch.beamform(prob.a_b, y_q), params.tau[0])
    u = (prob.slot_sigma(params.phi_in[0], params.psi_in[0])
         * prob.slot_proj(params.theta_t[0]))
    num, den = prob.path_terms(r, u)
    delta = num / den
    # derivative of L w.r.t. conj(delta) is numerator - delta * denominator
    assert abs(num - delta * den) < 1e-6


def test_batched_objective_matches_scalar_oracle(setup20):
    """A delay batch and each angle batch equal the scalar oracle row by row."""
    s = setup20
    rng = np.random.default_rng(7)
    shape = (s.geom.n_bs, s.cfg.t_total, s.cfg.n_subcarriers)
    y_q = 1e-5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    params = _random_params(s, rng)
    tau, th, ph, ps = (params.tau[0], params.theta_t[0], params.phi_in[0],
                       params.psi_in[0])
    prob = sg.SageProblem(y_q, s.setup)
    pa = ch.beamform(prob.a_b, y_q)
    r = prob.derotated(pa, tau)
    sigma, proj = prob.slot_sigma(ph, ps), prob.slot_proj(th)
    n = 9
    taus = tau + np.linspace(-2e-8, 2e-8, n)
    ths = th + np.linspace(-0.05, 0.05, n)
    phs = ph + np.linspace(-0.05, 0.05, n)
    pss = ps + np.linspace(-0.05, 0.05, n)
    batches = {
        "tau": (prob.objective(prob.derotated(pa, taus), sigma * proj),
                [(t, th, ph, ps) for t in taus]),
        "theta_t": (prob.objective(r, sigma * prob.slot_proj(ths)),
                    [(tau, t, ph, ps) for t in ths]),
        "phi_in": (prob.objective(r, prob.slot_sigma(phs, np.full(n, ps))
                                  * proj),
                   [(tau, th, p, ps) for p in phs]),
        "psi_in": (prob.objective(r, prob.slot_sigma(np.full(n, ph), pss)
                                  * proj),
                   [(tau, th, ph, p) for p in pss]),
    }
    for name, (batch, points) in batches.items():
        assert batch.shape == (n,), name
        ref = np.array([single_path_objective(y_q, *pt, s.setup)
                        for pt in points])
        assert np.max(np.abs(batch - ref) / ref) < 1e-12, name


def test_batched_objective_zero_denominator_never_wins(setup20):
    """A candidate whose slot factor vanishes scores 0 instead of raising."""
    s = setup20
    prob = sg.SageProblem(s.rx_noisy, s.setup)
    r = prob.derotated(ch.beamform(prob.a_b, s.rx_noisy), s.true.tau[0])
    u = np.stack([prob.slot_sigma(s.true.phi_in[0], s.true.psi_in[0])
                  * prob.slot_proj(s.true.theta_t[0]),
                  np.zeros(s.cfg.t_total)])
    vals = prob.objective(r, u)
    assert vals[0] > 0.0 and vals[1] == 0.0
    with pytest.raises(sg.ZeroDenominator):
        prob.fit(r, u[1])


def test_objective_zero_denominator(setup20):
    s = setup20
    silent = ch.Setup(s.geom, s.cfg, np.zeros_like(s.pilots), s.sched)
    with pytest.raises(sg.ZeroDenominator):
        single_path_objective(s.rx_noisy, s.true.tau[0], s.true.theta_t[0],
                              s.true.phi_in[0], s.true.psi_in[0], silent)


def test_coordinate_cycle_fixed_point(setup20):
    s = setup20
    prob = sg.SageProblem(s.rx_clean, s.setup)
    params = s.true.copy()
    trace = sg.coordinate_update_cycle(prob, params, 0)
    assert abs(params.tau[0] - s.true.tau[0]) \
        < 1e-6 / s.cfg.bandwidth
    assert abs(params.theta_t[0] - s.true.theta_t[0]) < 1e-6
    assert abs(params.phi_in[0] - s.true.phi_in[0]) < 1e-6
    assert abs(params.psi_in[0] - s.true.psi_in[0]) < 1e-6
    assert list(trace) == ["start", "tau", "theta_t", "phi_in", "psi_in"]
    vals = list(trace.values())
    assert np.all(np.diff(vals) >= -1e-9 * np.abs(vals[0]))


def test_coordinate_cycle_ascent_any_input(setup20):
    s = setup20
    prob = sg.SageProblem(s.rx_noisy, s.setup)
    rng = np.random.default_rng(6)
    params = _random_params(s, rng)
    trace = sg.coordinate_update_cycle(prob, params, 1)
    vals = list(trace.values())
    assert np.all(np.diff(vals) >= -1e-9 * max(abs(vals[0]), 1e-30))
    assert sg.UPDATE_ORDER == ("tau", "theta_t", "phi_in", "psi_in", "delta")


def test_run_sage_noiseless_ongrid(ongrid):
    """SAGE leaves exact coarse estimates essentially unchanged."""
    geom, cfg = ongrid.geom, ongrid.cfg
    gains = ch.draw_gains(cfg, geom, 42)
    true = gm.true_channel_params(geom, gains)
    sched = ch.make_phase_schedule(cfg, geom.n_ris, 7)
    pilots = ch.make_pilots(cfg, geom.n_ms, 8)
    setup = ch.Setup(geom, cfg, pilots, sched)
    rx = ch.synthesize_rx(setup, true, noiseless=True)
    coarse = ce.run_coarse(rx, setup)
    refined, info = sg.run_sage(rx, setup, coarse.params)
    assert info.monotone_ok
    assert np.max(np.abs(refined.theta_t - true.theta_t)) < 1e-6
    assert np.max(np.abs(refined.phi_in - true.phi_in)) < 1e-6
    assert np.max(np.abs(refined.psi_in - true.psi_in)) < 1e-6
    assert np.max(np.abs(refined.tau - true.tau)) * cfg.bandwidth < 1e-6
    assert np.max(np.abs(refined.gains - true.gains)) \
        < 1e-6 * np.max(np.abs(true.gains))


def test_run_sage_monotone_noisy(setup20):
    s = setup20
    coarse = ce.run_coarse(s.rx_noisy, s.setup)
    refined, info = sg.run_sage(s.rx_noisy, s.setup, coarse.params)
    assert info.monotone_ok
    hist = np.asarray(info.loglik_history)
    assert np.all(np.diff(hist) >= -1e-8 * np.abs(hist[:-1]))


def test_run_sage_single_path_reduction(setup20):
    """Q=0: one SAGE cycle is exactly one per-path coordinate ascent."""
    s = setup20
    single = ChannelParams(
        tau=s.true.tau[:1], gains=s.true.gains[:1],
        theta_t=s.true.theta_t[:1], phi_in=s.true.phi_in[:1],
        psi_in=s.true.psi_in[:1])
    rx = ch.synthesize_rx(s.setup, single, noise_seed=9)
    init = single.copy()
    init.tau[0] += 3e-9
    init.theta_t[0] += 0.01
    refined, _ = sg.run_sage(rx, s.setup, init, max_cycles=1)
    prob = sg.SageProblem(rx, s.setup)
    manual = init.copy()
    sg.coordinate_update_cycle(prob, manual, 0)
    assert_allclose(refined.to_vector(), manual.to_vector(), rtol=0,
                    atol=1e-30)


def test_sage_beats_coarse_at_20dbm(mini_mc):
    """Refined RMSE strictly below coarse for every parameter class."""
    rep = mini_mc
    for cls in ("delta_re", "delta_im", "tau", "theta_t", "phi_in", "psi_in"):
        coarse = rep.rmse["coarse"][cls][0]
        sage = rep.rmse["sage"][cls][0]
        assert sage < coarse, f"{cls}: sage {sage} vs coarse {coarse}"
