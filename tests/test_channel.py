"""Channel construction, phase schedule, pilots, gains, and dictionaries."""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import (block_slots, build_channel, build_channel_cascade,
                     model_field, observe, row_setup, slot_phases,
                     synthesize_rx_draws,
                     synthesize_rx_sum, synthesize_tensor)
from rispos import harness as hn
from rispos import channel as ch
from rispos import geometry as gm
from rispos.errors import DimensionMismatch, ScheduleInfeasible
from rispos.geometry import ScenarioGeometry
from rispos.params import ChannelParams


def _flat_params(gains, tau, theta_t):
    """Single- or multi-path params with all steering phases flattened."""
    n = np.size(tau)
    return ChannelParams(
        tau=np.atleast_1d(tau), gains=np.atleast_1d(gains),
        u=np.full(n, np.sin(theta_t)), c=np.full(n, np.cos(np.pi / 2)),
        s=np.ones(n))


@pytest.fixture(scope="module")
def small_geom():
    # BS at RIS + (0, 10, 0): the RIS-BS leg is exactly (0, pi/2, pi/2)
    lam = 3e8 / 4.9e9
    return ScenarioGeometry(bs=[-6, 18, 20], ris=[-6, 8, 20], ms=[22, 35, 1.5],
                            alpha=0.3, scatterers=[], n_bs=6, n_ms=4,
                            n_ris_az=3, n_ris_el=2, wavelength=lam)


def test_build_channel_all_ones(small_geom):
    """Single path with zero spatial frequencies: N_r-scaled all-ones."""
    cfg = ch.SystemConfig()
    params = _flat_params(1.0, 0.0, 0.0)
    h = build_channel(cfg, small_geom, params, np.ones(small_geom.n_ris), 1)
    assert_allclose(h, np.full((6, 4), small_geom.n_ris), atol=1e-12)


def test_build_channel_dual_route(setup20):
    s = setup20
    rng = np.random.default_rng(5)
    g_t = np.exp(1j * rng.uniform(0, 2 * np.pi, s.geom.n_ris))
    for n in (1, 7, 20):
        h_fast = build_channel(s.cfg, s.geom, s.true, g_t, n)
        h_casc = build_channel_cascade(s.cfg, s.geom, s.true, g_t, n)
        assert np.linalg.norm(h_fast - h_casc) < 1e-10 * np.linalg.norm(h_fast)


def test_build_channel_subcarrier_phase(setup20):
    """Single-path channels on adjacent subcarriers differ by the delay ramp."""
    s = setup20
    single = ChannelParams(
        tau=s.true.tau[:1], gains=s.true.gains[:1],
        u=s.true.u[:1], c=s.true.c[:1], s=s.true.s[:1])
    g_t = slot_phases(s.sched)[0]
    h1 = build_channel(s.cfg, s.geom, single, g_t, 4)
    h2 = build_channel(s.cfg, s.geom, single, g_t, 5)
    ramp = np.exp(-2j * np.pi * single.tau[0] * s.cfg.bandwidth
                  / s.cfg.n_subcarriers)
    assert np.max(np.abs(h2 - h1 * ramp)) < 1e-12 * np.max(np.abs(h1))


def test_build_channel_dimension_checks(setup20):
    s = setup20
    with pytest.raises(DimensionMismatch):
        build_channel(s.cfg, s.geom, s.true, np.ones(3), 1)
    with pytest.raises(DimensionMismatch):
        build_channel(s.cfg, s.geom, s.true,
                      slot_phases(s.sched)[0], s.cfg.n_subcarriers + 1)


def test_synthesize_zero_gain_zero_noise(setup20):
    s = setup20
    silent = replace(s.true, gains=np.zeros((1, s.true.n_paths)))
    obs = ch.synthesize_rx(s.setup, silent, noiseless=True)
    assert np.all(obs.pa == 0.0) and np.all(obs.cov1 == 0.0)


def test_noise_only_variance(setup20):
    """Sample variance of pure-noise tensors matches the configured power."""
    s = setup20
    silent = s.true.copy()
    silent.gains[:] = 0.0
    samples = []
    for seed in range(4):
        rx = synthesize_tensor(s.setup, silent, noise_seed=seed)
        samples.append(rx.ravel())
    z = np.concatenate(samples)
    assert z.size >= 1e5
    var = np.mean(np.abs(z) ** 2)
    assert abs(var - s.cfg.noise_power) < 0.02 * s.cfg.noise_power


def test_synthesize_deterministic(setup20):
    s = setup20
    rx1 = synthesize_tensor(s.setup, s.true, 11)
    rx2 = synthesize_tensor(s.setup, s.true, 11)
    assert np.array_equal(rx1, rx2)


@pytest.mark.parametrize("seed", [0, 3, 11, 2**40 + 5])
def test_synthesize_matches_out_of_place_sum(setup20, seed):
    """Noise added in place into the real and imaginary parts gives the
    out-of-place formula bit for bit, from the same noise stream."""
    s = setup20
    assert np.array_equal(synthesize_tensor(s.setup, s.true, seed),
                          synthesize_rx_sum(s.setup, s.true, seed))
    assert np.array_equal(
        synthesize_tensor(s.setup, s.true, np.random.default_rng(seed)),
        synthesize_rx_sum(s.setup, s.true, np.random.default_rng(seed)))


def test_synthesize_is_bs_steering_times_model_field(setup20):
    """The noiseless tensor is exactly a_B (x) the one forward model."""
    s = setup20
    rx = synthesize_tensor(s.setup, s.true, noiseless=True)
    field = model_field(s.true, s.setup)
    a_b = gm.steer_ula(s.geom.d_bs / s.geom.wavelength * s.setup.leg[0],
                       s.geom.n_bs)
    assert np.array_equal(a_b[:, None, None] * field[None, :, :], rx)


def test_noiseless_observation_is_the_tensor_observation(setup20):
    """Without noise, the observation equals the oracle tensor's
    statistics: a_B^H y and the first-T1-slot covariance."""
    s = setup20
    obs = ch.synthesize_rx(s.setup, replace(s.true, gains=s.true.gains[None]),
                           noiseless=True)
    ref = observe(synthesize_tensor(s.setup, s.true, noiseless=True), s.setup)
    for got, want in ((obs.pa, ref.pa), (obs.cov1, ref.cov1)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_prebuilt_triangle_keeps_every_draw():
    """Building the Bartlett triangle's indices once per setup changes no
    draw: on 50 sweep trials (master seed 77, 20 dBm) the observation
    equals, bit for bit, the one drawn in the documented order with
    ``np.tril_indices`` built per draw."""
    exp = hn.ExperimentConfig(master_seed=77)
    setup = row_setup(hn.sweep_setup(exp), 3)
    for trial in range(50):
        gain_seed, noise_seed = np.random.SeedSequence(
            (exp.master_seed, hn._TAG_TRIAL, 3, trial)).spawn(2)
        gains = ch.draw_gains(setup.cfg, setup.geom,
                              np.random.default_rng(gain_seed))
        true, _ = setup.truth(gains[None])
        obs = ch.synthesize_rx(setup, true, [np.random.default_rng(noise_seed)])
        ref = synthesize_rx_draws(setup, replace(true, gains=gains),
                                  np.random.default_rng(noise_seed))
        assert np.array_equal(obs.pa, ref.pa[None]), trial
        assert np.array_equal(obs.cov1, ref.cov1[None]), trial


@pytest.mark.parametrize("noiseless", [False, True])
def test_per_row_pilots_give_each_row_its_lone_observation(noiseless):
    """Synthesis on a stacked setup, the setup of a sweep at four powers,
    gives each row the field and the observation of its gains and noise
    seed drawn as a stack of one with its own power's lone setup, bit for
    bit."""
    exp = hn.ExperimentConfig(master_seed=77)
    stack = hn.sweep_setup(exp)
    setups = [row_setup(stack, k) for k in range(len(exp.powers_dbm))]
    assert stack.pilots.shape == (4,) + setups[0].pilots.shape
    gains = np.stack([ch.draw_gains(s.cfg, s.geom, k)
                      for k, s in enumerate(setups)])
    true, _ = setups[0].truth(gains)
    seeds = [20 + k for k in range(len(setups))]
    fields = model_field(true, stack)
    obs = ch.synthesize_rx(stack, true, seeds, noiseless=noiseless)
    for k, setup in enumerate(setups):
        alone_true, _ = setup.truth(gains[k:k + 1])
        alone = ch.synthesize_rx(setup, alone_true, seeds[k:k + 1],
                                 noiseless=noiseless)
        assert fields[k].tobytes() == model_field(alone_true,
                                                     setup).tobytes(), k
        assert obs.row(k).pa.tobytes() == alone.pa.tobytes(), k
        assert obs.row(k).cov1.tobytes() == alone.cov1.tobytes(), k


def test_observation_same_seed_same_bytes(setup20):
    s = setup20
    true = replace(s.true, gains=s.true.gains[None])
    for seed in (11, 2**40 + 5):
        for make in (lambda: seed, lambda: np.random.default_rng(seed)):
            a = ch.synthesize_rx(s.setup, true, [make()])
            b = ch.synthesize_rx(s.setup, true, [make()])
            assert a.pa.tobytes() == b.pa.tobytes()
            assert a.cov1.tobytes() == b.cov1.tobytes()
    other = ch.synthesize_rx(s.setup, true, [12])
    assert not np.array_equal(other.cov1, a.cov1)


def _moments(draws):
    stack = np.stack(draws)
    return stack.mean(axis=0), stack.var(axis=0)


@pytest.mark.parametrize("power", [-10.0, 20.0])
def test_observation_moments_match_the_tensor_oracle(setup20, power):
    """Over 1,500 draws, the means of pa and cov1 equal their exact values
    (N_b field; N_b sum_n conj(f) f^T + N_b N sigma^2 I) within sampling
    error, and their per-entry variances equal those of the oracle
    tensor's statistics within 5 %, the diagonal of cov1 (where the
    Wishart part enters) on its own. At -10 dBm the noise-by-noise terms
    carry most of cov1's variance, at 20 dBm the signal-by-noise ones."""
    s = setup20
    cfg = hn.ExperimentConfig().system()
    setup = ch.Setup(s.geom, cfg, ch.make_pilots(
        cfg, s.geom.n_ms, ch.dbm_to_watt(power), 8), s.sched)
    n_draws, sigma2, n_bs = 1500, cfg.noise_power, s.geom.n_bs
    rng_new, rng_ref = np.random.default_rng(61), np.random.default_rng(62)
    true = replace(s.true, gains=s.true.gains[None])
    new = [ch.synthesize_rx(setup, true, [rng_new]).row(0)
           for _ in range(n_draws)]
    ref = [observe(synthesize_tensor(setup, s.true, rng_ref), setup).row(0)
           for _ in range(n_draws)]
    field = model_field(s.true, setup)
    f1 = field[:cfg.t1]
    exact = {"pa": n_bs * field,
             "cov1": n_bs * (f1.conj() @ f1.T + cfg.n_subcarriers * sigma2
                             * np.eye(cfg.t1))}
    for name in ("pa", "cov1"):
        mean_new, var_new = _moments([getattr(o, name) for o in new])
        mean_ref, var_ref = _moments([getattr(o, name) for o in ref])
        for mean in (mean_new, mean_ref):
            z2 = np.abs(mean - exact[name]) ** 2 / (var_ref / n_draws)
            assert np.mean(z2) < 1.5, (name, np.mean(z2))
        ratio = var_new / var_ref
        parts = [ratio] if name == "pa" else [np.diag(ratio),
                                               ratio[~np.eye(cfg.t1, dtype=bool)]]
        for part in parts:
            assert abs(np.mean(part) - 1.0) < 0.05, (name, np.mean(part))
    assert np.mean(np.diag(var_new)) > 0.0


def test_single_bs_antenna_trial_runs():
    """N_b = 1 leaves no noise orthogonal to a_B: m = 0 Wishart degrees of
    freedom, and the covariance is that of the beamformed record alone."""
    exp = hn.ExperimentConfig(n_bs=1, n_trials=1, powers_dbm=[20.0])
    sweep = hn.sweep_setup(exp)
    setup = row_setup(sweep, 0)
    true = gm.true_channel_params(setup.geom,
                                  ch.draw_gains(setup.cfg, setup.geom, 0))
    obs = ch.synthesize_rx(setup, replace(true, gains=true.gains[None]),
                           [5]).row(0)
    y1 = obs.pa[:setup.cfg.t1] / np.sqrt(setup.geom.n_bs)
    assert_allclose(obs.cov1, y1.conj() @ y1.T, rtol=1e-12)
    rec = hn.run_trial(exp, 20.0, 0, 0, sweep)
    assert rec.error is None
    assert np.all(np.isfinite(rec.stages["lm"]))


def test_synthesize_matches_cascade_off_reference_leg(default_exp):
    """Synthesis takes the RIS-BS leg from the setup's geometry, also when
    the BS (and, in the last case, the RIS) sit off the reference layout."""
    ref = default_exp.geometry()
    cfg = default_exp.system()
    n_sub = cfg.n_subcarriers
    for bs, ris in (([4.0, -3.0, 25.0], ref.ris), ([-10.0, 2.0, 30.0], ref.ris),
                    ([0.0, 20.0, 15.0], [-4.0, 10.0, 18.0])):
        geom = ScenarioGeometry(bs=bs, ris=ris, ms=ref.ms, alpha=ref.alpha,
                                scatterers=ref.scatterers,
                                wavelength=ref.wavelength)
        setup = ch.Setup(geom, cfg, ch.make_pilots(cfg, geom.n_ms,
                                                   ch.dbm_to_watt(20.0), 8),
                         ch.make_phase_schedule(cfg, geom.n_ris, 7))
        params = gm.true_channel_params(geom, ch.draw_gains(cfg, geom, 42))
        rx = synthesize_tensor(setup, params, noiseless=True)
        for t in (0, cfg.t1, cfg.t_total - 1):
            for n in (1, n_sub // 2, n_sub):
                h = build_channel_cascade(cfg, geom, params,
                                          slot_phases(setup.sched)[t], n)
                assert_allclose(rx[:, t, n - 1], h @ setup.pilots[:, t],
                                rtol=1e-10, atol=0)


def test_energy_bookkeeping(setup20):
    """||y||^2 from the tensor equals ||H x||^2 slot by slot (unit gains)."""
    s = setup20
    params = s.true.copy()
    params.gains[:] = 1.0
    rx = synthesize_tensor(s.setup, params, noiseless=True)
    for t in (0, 16, 36):
        for n in (1, 10, 20):
            h = build_channel(s.cfg, s.geom, params,
                              slot_phases(s.sched)[t], n)
            ref = h @ s.pilots[:, t]
            got = rx[:, t, n - 1]
            assert abs(np.linalg.norm(got) ** 2 - np.linalg.norm(ref) ** 2) \
                < 1e-10 * np.linalg.norm(ref) ** 2


def test_narrowband_single_steering_eval(setup20, monkeypatch):
    """Steering evaluations do not scale with the subcarrier count."""
    import rispos.channel as chmod
    calls = {"n": 0}
    orig = chmod.steer_ula

    def counting(*args, **kwargs):
        calls["n"] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(chmod, "steer_ula", counting)
    s = setup20
    counts = []
    for n_sub in (10, 40):
        cfg = ch.SystemConfig(n_subcarriers=n_sub)
        setup = ch.Setup(s.geom, cfg, s.pilots, s.sched)
        calls["n"] = 0
        ch.synthesize_rx(setup, replace(s.true, gains=s.true.gains[None]),
                         noiseless=True)
        counts.append(calls["n"])
    assert counts[0] == counts[1]


def test_channel_bilinearity(setup20):
    s = setup20
    scale = 0.3 - 1.7j
    scaled = s.true.copy()
    scaled.gains = scaled.gains * scale
    g_t = slot_phases(s.sched)[2]
    h1 = build_channel(s.cfg, s.geom, s.true, g_t, 3)
    h2 = build_channel(s.cfg, s.geom, scaled, g_t, 3)
    assert np.max(np.abs(h2 - scale * h1)) < 1e-15 * np.max(np.abs(h1))


def test_phase_schedule_structure(setup20):
    s = setup20
    sched = s.sched
    assert sched.block_phases.shape == (8, s.geom.n_ris)
    assert sched.n_slots == 37
    assert len({tuple(np.round(row, 12)) for row in sched.block_phases}) == 8
    assert_allclose(np.abs(sched.block_phases), 1.0, atol=1e-14)
    slots3 = block_slots(sched, 3)
    for t in slots3:
        assert np.array_equal(slot_phases(sched)[t], sched.block_phases[3])
    # effective dictionary Gram has no zero diagonal entry
    gram_diag = np.sum(np.abs(sched.block_phases @ s.ris_dict.matrix) ** 2,
                       axis=0)
    assert np.all(gram_diag > 0.0)


def test_phase_schedule_infeasible():
    cfg = ch.SystemConfig(t_total=30)       # != 16 + 7*3
    with pytest.raises(ScheduleInfeasible):
        ch.make_phase_schedule(cfg, 100, 0)
    with pytest.raises(ScheduleInfeasible):
        ch.SystemConfig(t1=4).validate(1)   # via T mismatch
    with pytest.raises(ScheduleInfeasible):
        cfg2 = ch.SystemConfig(t1=6, t_total=27)
        cfg2.validate(2)                    # T1 < 8(Q+1)-2


def test_pilot_properties(setup20):
    s = setup20
    pilots = s.pilots
    p_tx = ch.dbm_to_watt(20.0)
    mag = np.sqrt(p_tx / s.geom.n_ms)
    assert_allclose(np.abs(pilots), mag, atol=1e-15)
    assert_allclose(np.sum(np.abs(pilots) ** 2, axis=0), p_tx, atol=1e-15)
    assert np.array_equal(pilots, ch.make_pilots(s.cfg, s.geom.n_ms, p_tx, 8))


def test_projected_dictionary_coherence(setup20):
    """The two true-AOD columns stay well separated after pilot projection."""
    s = setup20
    theta = s.a_m_dict
    proj = s.pilots[:, :s.cfg.t1].conj().T @ theta.matrix
    idx = [int(np.argmin(np.abs(theta.grid - u))) for u in s.true.u]
    gram = proj.conj().T @ proj
    coh = abs(gram[idx[0], idx[1]]) / np.sqrt(
        gram[idx[0], idx[0]].real * gram[idx[1], idx[1]].real)
    assert coh < 0.5


def test_draw_gains_deterministic(setup20):
    s = setup20
    g1 = ch.draw_gains(s.cfg, s.geom, 123)
    g2 = ch.draw_gains(s.cfg, s.geom, 123)
    assert np.array_equal(g1, g2)


def test_path_loss_value(setup20):
    """Carrier in GHz: reference loss against an independent evaluation."""
    s = setup20
    d_mr = np.linalg.norm(s.geom.ms - s.geom.ris)
    d_rb = np.linalg.norm(s.geom.ris - s.geom.bs)
    expected = 28.0 + 40.0 * np.log10(4.9) + 22.0 * np.log10(d_mr * d_rb)
    pl = ch.path_loss_db(s.cfg, s.geom)
    assert abs(pl[0] - expected) < 1e-10
    assert abs(pl[0] - 115.9235523725) < 1e-6
    assert_allclose(pl[1:], pl[0] + 3.0)


def test_gain_statistics(setup20):
    """Mean power of drawn gains matches the loss model at zero shadowing."""
    import dataclasses
    s = setup20
    cfg = dataclasses.replace(s.cfg, shadow_std_db=0.0)
    rng = np.random.default_rng(77)
    n_draws = 100_000
    acc = np.zeros(2)
    for _ in range(n_draws // 2):
        acc += np.abs(ch.draw_gains(cfg, s.geom, rng)) ** 2
    mean_power = acc / (n_draws // 2)
    target = 10.0 ** (-ch.path_loss_db(cfg, s.geom) / 10.0)
    assert np.all(np.abs(mean_power - target) < 0.03 * target)


def test_dictionary_grids(setup20):
    """The MS grid is -1 + 2g/G in the departure sine; the RIS grids hold
    absolute c and s, G points of step 2/G in [-1, 1) that contain the
    leg's own values, and each RIS column is the response at its point."""
    s = setup20
    setup, cfg = s.setup, s.cfg
    a_m, ris = s.a_m_dict, s.ris_dict
    assert_allclose(a_m.grid, -1.0 + 2.0 * np.arange(cfg.g_ms) / cfg.g_ms,
                    rtol=0, atol=1e-15)
    assert_allclose(a_m.matrix, gm.steer_ula(a_m.grid * s.geom.d_ms
                                             / s.geom.wavelength, s.geom.n_ms),
                    rtol=0, atol=1e-12)
    mid = cfg.g_ms // 2            # grid value 0 for even G
    assert_allclose(a_m.matrix[:, mid], np.ones(s.geom.n_ms), atol=1e-14)
    for grid, g, own in ((ris.elevation.grid, cfg.g_ris_el, setup.leg[2]),
                         (ris.azimuth.grid, cfg.g_ris_az, setup.leg[1])):
        assert grid.size == g
        assert -1.0 <= grid[0] and grid[-1] < 1.0
        assert_allclose(np.diff(grid), 2.0 / g, rtol=1e-12)
        assert np.min(np.abs(grid - own)) < 1e-15
    assert ris.matrix.shape == (s.geom.n_ris, cfg.g_ris_el * cfg.g_ris_az)
    rng = np.random.default_rng(5)
    for k in rng.choice(ris.matrix.shape[1], 12, replace=False):
        c_k = ris.elevation.grid[k // cfg.g_ris_az]
        s_k = ris.azimuth.grid[k % cfg.g_ris_az]
        assert_allclose(ris.matrix[:, k],
                        np.kron(*ch.ris_factors(setup, c_k, s_k)),
                        rtol=0, atol=1e-12)


def test_setup_rejects_pilot_shape(setup20):
    s = setup20
    with pytest.raises(DimensionMismatch):
        ch.Setup(s.geom, s.cfg, s.pilots[:, :5], s.sched)
