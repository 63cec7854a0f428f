"""Global likelihood, complete-data reconstruction, the coordinate-cycle
oracle, and SAGE's damped Fisher scoring."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracles
from conftest import spy_ascents
from oracles import (ZeroDenominator, beamform, bs_steering, build_channel,
                     channel_params_from_vector, coordinate_update_cycle,
                     factor_fit, factor_objective, factor_terms, from_angles,
                     gain_closed_form, global_log_likelihood, maximize_1d,
                     model_field, ms_steering, observe, path_factors,
                     path_terms, row_setup, reconstruct_complete_data,
                     refine_aod_cyclic, ris_diff_steering, ris_slot_factors,
                     sage_cycles, single_path_objective,
                     slot_phases, synthesize_tensor, synthesize_via_tensor,
                     to_angles)
from rispos import _damping as dm
from rispos import bounds as bnd
from rispos import channel as ch
from rispos import coarse_est as ce
from rispos import geometry as gm
from rispos import harness as hn
from rispos import sage as sg
from rispos.params import ChannelParams


def _loglik_reference(params, rx, pilots, sched, geom, cfg):
    """||Y||^2 - ||Y - model||^2 with the model built channel-by-channel."""
    total = 0.0
    for n in range(1, cfg.n_subcarriers + 1):
        y_n = rx[:, :, n - 1]
        mu = np.column_stack([
            build_channel(cfg, geom, params, slot_phases(sched)[t], n)
            @ pilots[:, t] for t in range(cfg.t_total)])
        total += np.linalg.norm(y_n) ** 2 - np.linalg.norm(y_n - mu) ** 2
    return total


def _random_params(s, rng):
    n_paths = 2
    return from_angles(
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
        lam = global_log_likelihood(params, observe(y, s.setup), s.setup)
        ref = _loglik_reference(params, y, s.pilots, s.sched, s.geom, s.cfg)
        assert abs(lam - ref) < 1e-8 * max(abs(ref), 1e-30)


def test_loglik_zero_gain(setup20):
    s = setup20
    silent = s.true.copy()
    silent.gains[:] = 0.0
    lam = global_log_likelihood(silent, s.obs_noisy, s.setup)
    assert lam == 0.0


def test_loglik_local_optimality_at_truth(setup20):
    s = setup20
    lam0 = global_log_likelihood(s.true, s.obs_clean, s.setup)
    rng = np.random.default_rng(1)
    vec0 = s.true.to_vector()
    scales = np.tile([1e-10, 1e-8, 1e-8, 1e-4, 1e-4, 1e-4], 2)
    for _ in range(100):
        vec = vec0 + scales * rng.standard_normal(vec0.size)
        pert = channel_params_from_vector(vec)
        lam = global_log_likelihood(pert, s.obs_clean, s.setup)
        assert lam <= lam0 + 1e-10 * abs(lam0)


def test_reconstruct_single_path_identity(setup20):
    s = setup20
    single = ChannelParams(
        tau=s.true.tau[:1], gains=s.true.gains[:1],
        u=s.true.u[:1], c=s.true.c[:1], s=s.true.s[:1])
    rx = synthesize_tensor(s.setup, single, noise_seed=5)
    y_0 = reconstruct_complete_data(rx, single, 0, s.setup)
    assert np.array_equal(y_0, rx)


def test_reconstruct_recovers_planted_path(setup20):
    s = setup20
    for q in range(2):
        only_q = s.true.copy()
        only_q.gains = s.true.gains.copy()
        only_q.gains[1 - q] = 0.0
        planted = synthesize_tensor(s.setup, only_q, noiseless=True)
        y_q = reconstruct_complete_data(s.rx_clean, s.true, q, s.setup)
        scale = np.max(np.abs(planted))
        assert np.max(np.abs(y_q - planted)) < 1e-10 * scale


def test_reconstruct_sum_identity(setup20):
    s = setup20
    y_0 = reconstruct_complete_data(s.rx_noisy, s.true, 0, s.setup)
    others = s.true.copy()
    others.gains[0] = 0.0
    interference = (bs_steering(s.geom)[:, None, None]
                    * model_field(others, s.setup))
    scale = np.max(np.abs(s.rx_noisy))
    assert np.max(np.abs(y_0 + interference - s.rx_noisy)) < 1e-15 * scale


def test_complete_data_beamforms_the_full_tensor(setup20, monkeypatch):
    """The record the coordinate-cycle oracle scores, a_B^H y - (a_B^H a_B)
    field, equals a_B^H applied to the per-path tensor; the factors it
    starts from are path q's ``path_factors`` columns."""
    s = setup20
    calls = []
    terms = oracles.factor_terms

    def recorded(pa, setup, sigma, proj, ramp):
        calls.append((pa, sigma, proj, ramp))
        return terms(pa, setup, sigma, proj, ramp)
    monkeypatch.setattr(oracles, "factor_terms", recorded)
    factors = path_factors(s.true, s.setup)
    for q in range(2):
        full = reconstruct_complete_data(s.rx_noisy, s.true, q, s.setup)
        ref = beamform(bs_steering(s.geom), full)
        calls.clear()
        coordinate_update_cycle(s.obs_noisy.row(0), s.setup, s.true.copy(), q)
        got = calls[0][0]
        assert got.shape == (s.cfg.t_total, s.cfg.n_subcarriers)
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))
        assert all(call[0] is got for call in calls)
        for f, col in zip(factors, calls[0][1:]):
            assert np.array_equal(col, f[:, q:q + 1])


def _planted_single(s, seed=None):
    """Path 1 silenced: its params in angles, and the received tensor."""
    only = s.true.copy()
    only.gains = s.true.gains.copy()
    only.gains[1] = 0.0
    rx = synthesize_tensor(s.setup, only, noiseless=True)
    return to_angles(only), rx


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
    params = to_angles(params)
    d_vec = gain_closed_form(y_q, params.tau[q], params.theta_t[q],
                             params.phi_in[q], params.psi_in[q], s.setup)

    a_b = bs_steering(s.geom)
    a_m = ms_steering(s.geom, params.theta_t[q])
    a_r = ris_diff_steering(s.geom, params.phi_in[q], params.psi_in[q])
    sigma = slot_phases(s.sched) @ a_r
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
        ang = to_angles(params)
        args = (ang.tau[0], ang.theta_t[0], ang.phi_in[0], ang.psi_in[0],
                s.setup)
        f_val = single_path_objective(y_q, *args)
        delta = gain_closed_form(y_q, *args)
        single = ChannelParams(
            tau=params.tau[:1], gains=np.array([delta]),
            u=params.u[:1], c=params.c[:1], s=params.s[:1])
        l_val = global_log_likelihood(single, observe(y_q, s.setup),
                                         s.setup)
        assert abs(l_val - f_val) < 1e-8 * max(abs(f_val), 1e-30)


def test_gain_stationarity(setup20):
    """dL/d(conj gain) vanishes at the closed-form gain."""
    s = setup20
    rng = np.random.default_rng(5)
    shape = (s.geom.n_bs, s.cfg.t_total, s.cfg.n_subcarriers)
    y_q = 1e-5 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    params = to_angles(_random_params(s, rng))
    num, den = path_terms(y_q, params.tau[0], params.theta_t[0],
                          params.phi_in[0], params.psi_in[0], s.setup)
    delta = num / den
    # derivative of L w.r.t. conj(delta) is numerator - delta * denominator
    assert abs(num - delta * den) < 1e-6


def _coords(params, q=0):
    """The search coordinates of path q: tau, u = sin theta_t,
    c = cos phi_in and s = sin psi_in sin phi_in."""
    return params.tau[q], params.u[q], params.c[q], params.s[q]


def _angles(u, c, s):
    """(theta_t, phi_in, psi_in) of the coordinates (u, c, s)."""
    sin_phi = np.sqrt(1.0 - c * c)
    return (np.arcsin(u), np.arccos(c),
            np.pi - np.arcsin(np.clip(s / sin_phi, -1.0, 1.0)))


def _search_factors(s, params, sigma=None, proj=None):
    """Per coordinate of path 0 of params, a map from candidates to the
    (sigma, proj, ramp) columns its search scores: the candidates' own
    factor and path 0's other two, ``sigma`` or ``proj`` in place of
    path 0's when given."""
    tau, u, c, sa = _coords(params)
    cols = [f[:, :1] for f in path_factors(params, s.setup)]
    if sigma is not None:
        cols[0] = sigma
    if proj is not None:
        cols[1] = proj
    sig, p, ramp = cols
    return {
        "tau": lambda x: (sig, p, ch.subcarrier_ramp(x, s.cfg.bandwidth,
                                                     s.cfg.n_subcarriers)),
        "theta_t": lambda x: (sig, ch.pilot_projection(s.geom, s.pilots, x),
                              ramp),
        "phi_in": lambda x: (ris_slot_factors(s.setup, x, np.array([sa])),
                             p, ramp),
        "psi_in": lambda x: (ris_slot_factors(s.setup, np.array([c]), x),
                             p, ramp),
    }


def test_batched_objective_matches_scalar_oracle(setup20):
    """``factor_terms`` on each search's factor columns equals the
    long-form oracle at the mapped angles, row by row."""
    s = setup20
    rng = np.random.default_rng(7)
    shape = (s.geom.n_bs, s.cfg.t_total, s.cfg.n_subcarriers)
    for _ in range(3):
        y_q = 1e-5 * (rng.standard_normal(shape)
                      + 1j * rng.standard_normal(shape))
        params = _random_params(s, rng)
        tau, u, c, sa = _coords(params)
        th, ph, ps = _angles(u, c, sa)
        (pa,) = observe(y_q, s.setup).pa
        factors = _search_factors(s, params)
        n = 9
        # physical brackets: c^2 + s^2 <= 1 along both RIS coordinates
        lim_c, lim_s = np.sqrt(1.0 - sa * sa), np.sqrt(1.0 - c * c)
        taus = tau + np.linspace(-2e-8, 2e-8, n)
        us = u + np.linspace(-0.05, 0.05, n)
        cs = np.linspace(max(-lim_c, c - 0.05), min(lim_c, c + 0.05), n)
        ss = np.linspace(max(-lim_s, sa - 0.05), min(lim_s, sa + 0.05), n)
        batches = {
            "tau": (taus, [(t, th, ph, ps) for t in taus]),
            "theta_t": (us, [(tau,) + _angles(x, c, sa) for x in us]),
            "phi_in": (cs, [(tau,) + _angles(u, x, sa) for x in cs]),
            "psi_in": (ss, [(tau,) + _angles(u, c, x) for x in ss]),
        }
        for name, (xs, points) in batches.items():
            terms = factor_terms(pa, s.setup, *factors[name](xs))
            batch = factor_objective(*terms)
            assert batch.shape == (n,), name
            ref = np.array([single_path_objective(y_q, *pt, s.setup)
                            for pt in points])
            assert np.max(np.abs(batch - ref) / ref) < 1e-12, name
            gains = terms[0] / terms[1]
            ref_gains = [gain_closed_form(y_q, *pt, s.setup) for pt in points]
            assert np.max(np.abs(gains - ref_gains)
                          / np.abs(ref_gains)) < 1e-12, name


def test_batched_objective_zero_denominator_never_wins(setup20):
    """A candidate whose slot factors vanish scores 0 instead of raising."""
    s = setup20
    (pa,) = s.obs_noisy.pa
    tau, u, c, sa = _coords(s.true)
    zero = np.zeros((s.cfg.t_total, 1))
    step = np.linspace(-0.01, 0.01, 5)
    live = _search_factors(s, s.true)
    # each search's candidate factor times a vanishing fixed one
    dead = _search_factors(s, s.true, sigma=zero, proj=zero)
    cands = {"tau": tau + 1e-7 * step, "theta_t": u + step,
             "phi_in": c + step, "psi_in": sa + step}
    for name, xs in cands.items():
        live_terms = factor_terms(pa, s.setup, *live[name](xs))
        dead_terms = factor_terms(pa, s.setup, *dead[name](xs))
        assert np.all(factor_objective(*live_terms) > 0.0), name
        assert np.all(factor_objective(*dead_terms) == 0.0), name
        with pytest.raises(ZeroDenominator):
            factor_fit(*(x[0] for x in dead_terms))


def test_ris_candidates_are_physical(setup20, monkeypatch):
    """Every candidate SAGE scores is projected onto the physical set:
    |u| <= 1 and c^2 + s^2 <= 1, each one a real (theta_t, phi_in,
    psi_in). The runs start at the coarse point and on the rim
    c^2 + s^2 = 1 (psi_in at pi/2 or 3pi/2), where an unprojected step
    would leave the disk at once."""
    s = setup20
    points = []
    derivative_factors = ch.derivative_factors

    def recorded(params, setup):
        points.append(params)
        return derivative_factors(params, setup)

    monkeypatch.setattr(ch, "derivative_factors", recorded)
    coarse = ce.run_coarse(s.obs_noisy, s.setup)
    sg.run_sage(s.obs_noisy, s.setup, coarse.params)
    for psi in (0.5 * np.pi, 1.5 * np.pi):
        for phi in (0.2, 1.0, 2.0, 2.9):
            params = s.true.take(None).copy()
            params.c[:] = np.cos(phi)
            params.s[:] = np.sin(psi) * np.sin(phi)
            sg.run_sage(s.obs_noisy, s.setup, params)
    u = np.concatenate([p.u for p in points])
    c = np.concatenate([p.c for p in points])
    sa = np.concatenate([p.s for p in points])
    assert c.size > 100
    assert np.all(np.abs(u) <= 1.0)
    # a radially scaled (c, s) lies on the rim to rounding
    assert np.all(c * c + sa * sa <= 1.0 + 1e-12)


def test_objective_zero_denominator(setup20):
    s = setup20
    silent = ch.Setup(s.geom, s.cfg, np.zeros_like(s.pilots), s.sched)
    true = to_angles(s.true)
    with pytest.raises(ZeroDenominator):
        single_path_objective(s.rx_noisy, true.tau[0], true.theta_t[0],
                              true.phi_in[0], true.psi_in[0], silent)


def test_damped_sage_fixed_point(setup20):
    """Started at the truth on the noiseless record, SAGE converges and
    stays there: every delay within 1e-6 / B, every angle within 1e-6."""
    s = setup20
    refined, (info,) = sg.run_sage(s.obs_clean, s.setup, s.true.take(None))
    refined = refined.take(0)
    assert info.converged
    est, true = to_angles(refined), to_angles(s.true)
    assert np.max(np.abs(refined.tau - s.true.tau)) < 1e-6 / s.cfg.bandwidth
    for name in ("theta_t", "phi_in", "psi_in"):
        assert np.max(np.abs(getattr(est, name) - getattr(true, name))) \
            < 1e-6, name
    assert np.all(np.diff(info.loglik_history) >= 0.0)


def test_damped_sage_ascent_any_input(setup20):
    """From random parameters far from the truth, every kept step raises
    the global log-likelihood or leaves it equal."""
    s = setup20
    rng = np.random.default_rng(6)
    params = _random_params(s, rng)
    _, (info,) = sg.run_sage(s.obs_noisy, s.setup, params.take(None))
    hist = np.asarray(info.loglik_history)
    assert hist.size > 1
    assert hist[0] == global_log_likelihood(params, s.obs_noisy, s.setup)
    assert np.all(np.diff(hist) >= 0.0)


def test_run_sage_noiseless_ongrid(ongrid):
    """SAGE leaves exact coarse estimates essentially unchanged."""
    geom, cfg = ongrid.geom, ongrid.cfg
    gains = ch.draw_gains(cfg, geom, 42)
    true = gm.true_channel_params(geom, gains)
    sched = ch.make_phase_schedule(cfg, geom.n_ris, 7)
    pilots = ch.make_pilots(cfg, geom.n_ms, ch.dbm_to_watt(20.0), 8)
    setup = ch.Setup(geom, cfg, pilots, sched)
    obs = observe(synthesize_tensor(setup, true, noiseless=True), setup)
    coarse = ce.run_coarse(obs, setup)
    assert coarse.errors == [None]
    refined, (info,) = sg.run_sage(obs, setup, coarse.params)
    refined = refined.take(0)
    assert info.converged
    assert np.all(np.diff(info.loglik_history) >= 0.0)
    est, ref = to_angles(refined), to_angles(true)
    assert np.max(np.abs(est.theta_t - ref.theta_t)) < 1e-6
    assert np.max(np.abs(est.phi_in - ref.phi_in)) < 1e-6
    assert np.max(np.abs(est.psi_in - ref.psi_in)) < 1e-6
    assert np.max(np.abs(refined.tau - true.tau)) * cfg.bandwidth < 1e-6
    assert np.max(np.abs(refined.gains - true.gains)) \
        < 1e-6 * np.max(np.abs(true.gains))


def test_run_sage_monotone_noisy(setup20):
    s = setup20
    coarse = ce.run_coarse(s.obs_noisy, s.setup)
    assert coarse.errors == [None]
    refined, (info,) = sg.run_sage(s.obs_noisy, s.setup, coarse.params)
    assert np.all(np.diff(info.loglik_history) >= 0.0)


def test_run_sage_single_path_reduction(setup20):
    """Q=0: the complete data is the whole record, so SAGE's joint ascent
    is the per-path one. Its estimate is a fixed point of the per-path
    coordinate-cycle oracle: one more cycle moves no parameter by 1 % of
    its CRLB standard deviation."""
    s = setup20
    single = ChannelParams(
        tau=s.true.tau[:1], gains=s.true.gains[:1],
        u=s.true.u[:1], c=s.true.c[:1], s=s.true.s[:1])
    rx = observe(synthesize_tensor(s.setup, single, noise_seed=9), s.setup)
    init = single.take(None).copy()
    init.tau[0] += 3e-9
    init.u[0] = np.sin(np.arcsin(init.u[0]) + 0.01)
    refined, (info,) = sg.run_sage(rx, s.setup, init)
    refined = refined.take(0)
    assert info.converged
    cycled = refined.copy()
    coordinate_update_cycle(rx.row(0), s.setup, cycled, 0)
    sd = np.sqrt(np.diag(np.linalg.inv(info.fim)))
    moved = np.abs(cycled.to_vector() - refined.to_vector()) / sd
    assert np.max(moved) < 1e-2, moved


def test_sage_beats_coarse_at_20dbm(mini_mc):
    """Refined RMSE strictly below coarse for every parameter class."""
    rep = mini_mc
    for cls in ("delta_re", "delta_im", "tau", "theta_t", "phi_in", "psi_in"):
        coarse = rep.rmse["coarse"][cls][0]
        sage = rep.rmse["sage"][cls][0]
        assert sage < coarse, f"{cls}: sage {sage} vs coarse {coarse}"


def test_default_tol_within_crlb_of_tight_search(default_exp, monkeypatch):
    """The default stop rule, an undamped decrement below 1e-6 nats, moves
    no SAGE estimate by more than 1 % of its CRLB standard deviation
    against the rule tightened to 1e-12 nats for both the AOD refinement
    and SAGE."""
    exp = default_exp
    geom = exp.geometry()
    sweep = hn.sweep_setup(exp)
    worst = 0.0
    for p_idx in range(len(exp.powers_dbm)):
        setup = row_setup(sweep, p_idx)
        for trial in range(2):
            gain_seed, noise_seed = np.random.SeedSequence(
                (p_idx, trial)).spawn(2)
            true = gm.true_channel_params(
                geom, ch.draw_gains(setup.cfg, geom,
                                    np.random.default_rng(gain_seed)))
            sd = np.sqrt(np.diag(np.linalg.inv(bnd.fim_channel(true, setup))))
            y = observe(synthesize_tensor(
                setup, true, noise_seed=np.random.default_rng(noise_seed)),
                setup)

            rows = []
            for tight in (False, True):
                with monkeypatch.context() as m:
                    if tight:
                        m.setattr(dm, "DECREMENT_TOL", 1e-12)
                    coarse = ce.run_coarse(y, setup)
                    assert coarse.errors == [None]
                    refined, _ = sg.run_sage(y, setup, coarse.params)
                refined = refined.take(0)
                perm = hn.associate_paths(refined.u, true.u)
                rows.append(refined.to_vector().reshape(-1, 6)[perm].ravel())
            worst = max(worst, float(np.max(np.abs(rows[0] - rows[1]) / sd)))
    assert worst <= 1e-2, worst


def _sage_cases(setup20, exp):
    """SAGE inputs: the setup20 scenario and one reference trial at each
    configured power, seeded as the sweep seeds trial 0."""
    geom = exp.geometry()
    yield setup20.setup, setup20.rx_noisy, setup20.true
    sweep = hn.sweep_setup(exp)
    for p_idx in range(len(exp.powers_dbm)):
        setup = row_setup(sweep, p_idx)
        gain_seed, noise_seed = np.random.SeedSequence((p_idx, 0)).spawn(2)
        true = gm.true_channel_params(
            geom, ch.draw_gains(setup.cfg, geom,
                                np.random.default_rng(gain_seed)))
        y = synthesize_tensor(setup, true,
                              noise_seed=np.random.default_rng(noise_seed))
        yield setup, y, true


def test_sage_fixed_point_is_the_angle_ml_point(setup20, default_exp):
    """SAGE steps in (c, s) = (cos phi_in, sin psi_in sin phi_in), yet
    its estimate maximizes the oracle's F along phi_in at fixed psi_in and
    along psi_in at fixed phi_in, to 1 % of the CRLB standard deviation:
    it is the same ML point in either coordinate system."""
    worst = 0.0
    for setup, y, true in _sage_cases(setup20, default_exp):
        obs = observe(y, setup)
        coarse = ce.run_coarse(obs, setup)
        assert coarse.errors == [None]
        refined, _ = sg.run_sage(obs, setup, coarse.params)
        refined = refined.take(0)
        perm = hn.associate_paths(refined.u, true.u)
        cov = np.linalg.inv(bnd.fim_channel(true, setup))
        sd_angle = np.sqrt(hn.angle_crlb(cov, true)).reshape(
            -1, 6)[np.argsort(perm)]
        ang = to_angles(refined)
        for q in range(refined.n_paths):
            y_q = reconstruct_complete_data(y, refined, q, setup)
            tau, th, ph, ps = (ang.tau[q], ang.theta_t[q], ang.phi_in[q],
                               ang.psi_in[q])
            lines = {
                4: (ph, lambda x: single_path_objective(y_q, tau, th, x, ps,
                                                        setup)),
                5: (ps, lambda x: single_path_objective(y_q, tau, th, ph, x,
                                                        setup)),
            }
            for col, (x0, f) in lines.items():
                half = 3.0 * sd_angle[q, col]
                x_best, _ = maximize_1d(
                    lambda xs: np.array([f(x) for x in xs]),
                    x0 - half, x0 + half, n_grid=41, tol=1e-9, incumbent=x0)
                worst = max(worst, abs(x_best - x0) / sd_angle[q, col])
    assert worst <= 1e-2, worst


def _cyclic_refinement(obs, setup, u_init):
    """``refine_aod_mle`` on a stack with its sines from the cyclic
    oracle, row by row."""
    return (np.array([refine_aod_cyclic(obs.row(k), row_setup(setup, k), u)
                      for k, u in enumerate(u_init)]), [0] * len(u_init))


@pytest.mark.parametrize("power,trial", [(0.0, 8), (0.0, 16), (10.0, 26)])
def test_sage_from_newton_aod_matches_the_cyclic_aod_oracle(power, trial,
                                                            monkeypatch):
    """Trials on which a local search once walked to another local
    maximum (a VLoS theta_t moved 0.609 -> 0.729 rad). SAGE from the AOD
    refinement's sines ends within 0.1 CRLB sd of SAGE from the sines of
    cyclic full-search passes run to their fixed point. The trials are
    observed from the received tensors these cases were found on."""
    exp = hn.ExperimentConfig(master_seed=5, stage="sage", n_trials=30)
    p_idx = exp.powers_dbm.index(power)
    setup = hn.sweep_setup(exp)
    monkeypatch.setattr(ch, "synthesize_rx", synthesize_via_tensor)
    rec = hn.run_trial(exp, power, p_idx, trial, setup)
    with monkeypatch.context() as m:
        m.setattr(ce, "refine_aod_mle", _cyclic_refinement)
        ref = hn.run_trial(exp, power, p_idx, trial, setup)
    assert rec.error is None and ref.error is None
    u_true = rec.eta_true.reshape(-1, 6)[:, 3]
    rows = []
    for r in (rec, ref):
        est = channel_params_from_vector(r.stages["sage"])
        rows.append(hn.channel_angles(est)[hn.associate_paths(est.u, u_true)])
    sd = np.sqrt(rec.crlb).reshape(-1, 6)
    assert np.max(np.abs(rows[0] - rows[1]) / sd) <= 0.1


def test_fisher_scoring_converges_with_the_channel_fim(setup20, monkeypatch):
    """From the coarse point every step is the undamped Fisher-scoring
    step, and SAGE converges: the history holds the start and each
    accepted step and does not fall, and the FIM it returns is
    ``bounds.fim_channel`` at the estimate, bit for bit."""
    s = setup20
    ascents = spy_ascents(monkeypatch, sg)
    coarse = ce.run_coarse(s.obs_noisy, s.setup)
    assert coarse.errors == [None]
    refined, (info,) = sg.run_sage(s.obs_noisy, s.setup, coarse.params)
    refined = refined.take(0)
    assert info.converged
    assert info.scoring_steps > 0
    assert ascents == [(info.scoring_steps, True, info.scoring_steps)]
    hist = np.asarray(info.loglik_history)
    assert hist.size == 1 + info.scoring_steps
    assert np.all(np.diff(hist) >= 0.0)
    assert np.array_equal(info.fim, bnd.fim_channel(refined, s.setup))


def _recorded_sage(monkeypatch, seed, power, trial):
    """The inputs and result of SAGE in one lm trial, which ends LM
    within 3x PEB, and that trial's LM error/PEB."""
    calls = []
    run_sage = sg.run_sage

    def recorded(obs, setup, init, *args, **kwargs):
        out = run_sage(obs, setup, init, *args, **kwargs)
        calls.append((obs, setup, init, out))
        return out
    with monkeypatch.context() as m:
        m.setattr(sg, "run_sage", recorded)
        exp = hn.ExperimentConfig(master_seed=seed)
        rec = hn.run_trial(exp, power, exp.powers_dbm.index(power), trial)
    assert rec.error is None
    ratio = np.sqrt(rec.sq_errors["lm"]["position"]) / rec.peb
    assert ratio < 3.0
    # the trial's batch runs SAGE on a stack of one: its one row
    ((obs, setup, init, (refined, (info,))),) = calls
    return (obs.row(0), row_setup(setup, 0), init.take(0),
            (refined.take(0), info)), ratio


def test_damped_scoring_converges_where_plain_scoring_failed(monkeypatch):
    """Master seed 77, -10 dBm, trial 71, and master seed 7, -10 dBm,
    trial 4: plain Fisher scoring from the coarse point lowers the
    likelihood, so the steps are damped. Damped scoring converges, so SAGE
    returns its FIM, and LM ends within 3x PEB. Its likelihood is no lower
    than full-search coordinate cycles reach from the same start, less
    what its stop rule leaves: the likelihood in nats is the monitored
    value over sigma^2, and a step with step^T J step < 1e-6 would gain
    about half that. Trial 4's LM error/PEB is pinned."""
    for seed, trial, pinned in ((77, 71, None), (7, 4, 1.9613513169535468)):
        call, ratio = _recorded_sage(monkeypatch, seed, -10.0, trial)
        obs, setup, init, (refined, info) = call
        assert info.converged and info.fim is not None
        assert np.all(np.diff(info.loglik_history) >= 0.0)
        cycled = global_log_likelihood(sage_cycles(obs, setup, init), obs,
                                       setup)
        slack = 0.5 * dm.DECREMENT_TOL * setup.cfg.noise_power
        assert info.loglik_history[-1] >= cycled - slack
        if pinned is not None:
            assert abs(ratio / pinned - 1.0) < 1e-6


def test_sage_converges_from_a_clamped_rim_start(monkeypatch):
    """Master seed 77, -10 dBm, trial 102: the coarse RIS pick of a
    scatterer path is clamped onto the rim c^2 + s^2 = 1, where the score
    points out of the disk. SAGE steps along the rim, converges, and LM
    ends within 3x PEB; plain scoring once ended this trial at 2,568x."""
    call, _ = _recorded_sage(monkeypatch, 77, -10.0, 102)
    obs, setup, init, (refined, info) = call
    assert np.any(np.isclose(init.c ** 2 + init.s ** 2, 1.0, rtol=0,
                             atol=1e-12))
    assert info.converged and info.fim is not None


def test_sines_fold_at_half_wavelength_spacing(setup20):
    """At d_ms = lambda/2 the sines u and u +- 2 give one MS steering
    vector, so SAGE's projection folds a sine outside [-1, 1] into
    [-1, 1) and its step space keeps a sine at +-1 whose score points
    out; where the sines do not wrap it clips them and drops that
    direction. A sine inside [-1, 1] keeps its bits either way."""
    geom = setup20.geom
    assert geom.d_ms / geom.wavelength == 0.5
    vec = np.zeros(12)
    vec[[3, 4, 5, 9, 10, 11]] = [1.25, 0.1, 0.2, 0.3, -0.4, 0.5]
    folded = sg._projected(vec, True)
    assert_allclose(folded.u, [-0.75, 0.3], rtol=0, atol=1e-15)
    assert folded.u[1] == 0.3
    assert_allclose(ch.ms_sine_steering(geom, folded.u),
                    ch.ms_sine_steering(geom, vec[[3, 9]]), atol=1e-12)
    assert_allclose(sg._projected(-vec, True).u, [0.75, -0.3], atol=1e-15)
    assert np.array_equal(sg._projected(vec, False).u, [1.0, 0.3])
    vec[3] = 1.0
    score = np.zeros(12)
    score[3] = 1.0                    # pointing out of [-1, 1]
    for wraps in (True, False):
        sine, rim = sg._boundary_rows(vec[None], score[None], wraps)
        assert np.array_equal(sine, [[not wraps, False]])
        assert not rim.any()
    assert np.array_equal(sg._step_basis(vec, sine[0], rim[0]),
                          np.delete(np.eye(12), 3, axis=1))
