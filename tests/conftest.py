"""Shared fixtures: reference scenario, on-grid variant, mini Monte Carlo."""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq

from oracles import (angles_from_geometry, observe, ris_bs_angles,
                     synthesize_tensor)
from rispos import channel as ch
from rispos import geometry as gm
from rispos import coarse_est as ce
from rispos import harness as hn
from rispos.errors import SingularConcentration
from rispos.geometry import ScenarioGeometry


@pytest.fixture(scope="session")
def default_exp():
    return hn.ExperimentConfig()


@pytest.fixture(scope="session")
def default_geom(default_exp):
    return default_exp.geometry()


@pytest.fixture(scope="session")
def setup20(default_exp, default_geom):
    """Reference scenario at 20 dBm with fixed draws, noiseless + noisy:
    the received tensors and their observations."""
    geom = default_geom
    cfg = default_exp.system()
    gains = ch.draw_gains(cfg, geom, 42)
    true = gm.true_channel_params(geom, gains)
    sched = ch.make_phase_schedule(cfg, geom.n_ris, 7)
    pilots = ch.make_pilots(cfg, geom.n_ms, ch.dbm_to_watt(20.0), 8)
    setup = ch.Setup(geom, cfg, pilots, sched)
    rx_clean = synthesize_tensor(setup, true, noiseless=True)
    rx_noisy = synthesize_tensor(setup, true, noise_seed=3)
    return SimpleNamespace(geom=geom, cfg=cfg, gains=gains, true=true,
                           sched=sched, pilots=pilots,
                           setup=setup, a_m_dict=setup.a_m_dict,
                           ris_dict=setup.ris_dict,
                           rx_clean=rx_clean, rx_noisy=rx_noisy,
                           obs_clean=observe(rx_clean, setup),
                           obs_noisy=observe(rx_noisy, setup))


def _nearest_grid(value: float, grid: np.ndarray) -> float:
    return float(grid[np.argmin(np.abs(grid - value))])


def build_ongrid_scenario(exp: hn.ExperimentConfig | None = None):
    """Scenario near the reference one whose six path angles fall exactly
    on the estimation grids.

    The MS is placed on the RIS arrival ray fixed by on-grid elevation
    and azimuth values, the rotation angle solves the on-grid departure
    sine in closed form, and the scatterer range solves its on-grid
    departure sine by a 1-D root find. Delays stay generic.
    """
    exp = exp or hn.ExperimentConfig()
    geom0 = exp.geometry()
    cfg = exp.system()
    r, b = geom0.ris, geom0.bs
    theta_r0, phi_out0, psi_out0 = ris_bs_angles(r, b)
    grid_e = ch.grid_values(cfg.g_ris_el)
    grid_a = ch.grid_values(cfg.g_ris_az)
    grid_m = ch.grid_values(cfg.g_ms)
    sin_out = np.sin(psi_out0) * np.sin(phi_out0)
    cos_out = np.cos(phi_out0)

    _, phi_in, psi_in = angles_from_geometry(geom0)

    def ray_direction(phi, psi):
        return np.array([-np.sin(phi) * np.cos(psi),
                         -np.sin(phi) * np.sin(psi), -np.cos(phi)])

    # VLoS arrival angles on-grid, MS on the implied ray at the same range
    ce0 = _nearest_grid(np.cos(phi_in[0]) - cos_out, grid_e)
    sa0 = _nearest_grid(np.sin(psi_in[0]) * np.sin(phi_in[0])
                        - sin_out, grid_a)
    phi0 = np.arccos(cos_out + ce0)
    psi0 = np.pi - np.arcsin((sin_out + sa0) / np.sin(phi0))
    d_mr = float(np.linalg.norm(geom0.ms - r))
    ms = r + d_mr * ray_direction(phi0, psi0)

    # rotation angle from the on-grid departure sine
    ax, ay = r[0] - ms[0], r[1] - ms[1]
    radius = np.hypot(ax, ay)
    target0 = _nearest_grid(
        (ax * np.cos(geom0.alpha) - ay * np.sin(geom0.alpha)) / d_mr, grid_m)
    gamma = np.arctan2(ay, ax)
    base = np.arccos(np.clip(target0 * d_mr / radius, -1, 1))
    cands = [c % (2 * np.pi) for c in
             (base - gamma, -base - gamma)]
    cands = [c for c in cands if 0.0 <= c < np.pi]
    alpha = min(cands, key=lambda c: abs(c - geom0.alpha))

    # scatterer arrival angles on-grid; its range solves the departure sine
    ce1 = _nearest_grid(np.cos(phi_in[1]) - cos_out, grid_e)
    sa1 = _nearest_grid(np.sin(psi_in[1]) * np.sin(phi_in[1])
                        - sin_out, grid_a)
    phi1 = np.arccos(cos_out + ce1)
    psi1 = np.pi - np.arcsin((sin_out + sa1) / np.sin(phi1))
    u1 = ray_direction(phi1, psi1)
    a_vec = np.array([np.cos(alpha), -np.sin(alpha), 0.0])

    def dep_sine(d):
        s = r + d * u1
        v = s - ms
        return float(a_vec @ v / np.linalg.norm(v))

    d_lo, d_hi = 5.0, 38.0
    ds = np.linspace(d_lo, d_hi, 400)
    vals = np.array([dep_sine(d) for d in ds])
    attainable = grid_m[(grid_m > vals.min() + 1e-6)
                        & (grid_m < vals.max() - 1e-6)]
    target1 = attainable[np.argmin(np.abs(
        attainable - dep_sine(float(np.linalg.norm(geom0.scatterers[0] - r)))))]
    bracket = np.flatnonzero(np.diff(np.sign(vals - target1)) != 0)[0]
    d_s = brentq(lambda d: dep_sine(d) - target1, ds[bracket], ds[bracket + 1],
                 xtol=1e-13, rtol=8.9e-16)
    scat = r + d_s * u1

    geom = ScenarioGeometry(
        bs=b, ris=r, ms=ms, alpha=alpha, scatterers=[scat],
        n_bs=geom0.n_bs, n_ms=geom0.n_ms, n_ris_az=geom0.n_ris_az,
        n_ris_el=geom0.n_ris_el, wavelength=geom0.wavelength,
        d_bs=geom0.d_bs, d_ms=geom0.d_ms, d_ris_az=geom0.d_ris_az,
        d_ris_el=geom0.d_ris_el)
    info = SimpleNamespace(cos_diff=(ce0, ce1), sinsin_diff=(sa0, sa1),
                           sin_theta=(target0, target1))
    return geom, cfg, info


@pytest.fixture(scope="session")
def ongrid(default_exp):
    geom, cfg, info = build_ongrid_scenario(default_exp)
    return SimpleNamespace(geom=geom, cfg=cfg, info=info)


def sample_layout(rng: np.random.Generator) -> ScenarioGeometry:
    """Random scenario with the reference layout topology.

    The MS stays below the RIS in the far quadrant and scatterers sit
    between them, which keeps every angle inside its admissible range.
    The rotation angle is constrained to the branch the closed-form
    recovery resolves (alpha + psi_in,0 < 2 pi, as in the reference
    layout); the opposite branch is indistinguishable from the VLoS
    parameters alone.
    """
    ris = np.array([-6.0, 8.0, 20.0])
    ms = np.array([rng.uniform(8.0, 40.0), rng.uniform(16.0, 45.0),
                   rng.uniform(0.5, 4.0)])
    scat = np.array([rng.uniform(-2.0, 14.0), rng.uniform(2.0, 7.5),
                     rng.uniform(0.5, 8.0)])
    beta = np.arctan2(ris[1] - ms[1], ris[0] - ms[0]) % (2 * np.pi)
    alpha = rng.uniform(0.0, min(np.pi, 2 * np.pi - beta) - 0.02)
    lam = gm.SPEED_OF_LIGHT / 4.9e9
    return ScenarioGeometry(bs=[0.0, 0.0, 28.0], ris=ris,
                            ms=ms, alpha=alpha, scatterers=[scat],
                            wavelength=lam)


def sample_layout_with(rng: np.random.Generator,
                       n_scatterers: int) -> ScenarioGeometry:
    """A ``sample_layout`` draw with one scatterer, or with two: the draw
    plus a second scatterer from the same box."""
    geom = sample_layout(rng)
    if n_scatterers == 2:
        second = [rng.uniform(-2.0, 14.0), rng.uniform(2.0, 7.5),
                  rng.uniform(0.5, 8.0)]
        geom.scatterers = np.vstack([geom.scatterers, second])
    return geom


def lone_aod_objective(s_mat, c_mat, geom):
    """``coarse_est._aod_objective`` of one record, as a map of (n, P)
    stacks of sines to their (n,) values that raises
    ``SingularConcentration`` where the stack collides."""
    objective = ce._aod_objective(s_mat[None], c_mat[None], geom)

    def lone(stack):
        vals, ok = objective(np.arange(1), stack[None])
        if not ok[0]:
            raise SingularConcentration("departure angles collide")
        return vals[0]
    return lone


def spy_ascents(monkeypatch, module) -> list:
    """Record each fit of each ``_damping.ascend`` call that ``module``
    makes, row by row, as (steps, converged, candidates), candidates
    counting the candidates ``evaluate`` was given for that row: every
    step was the undamped one when candidates == steps."""
    calls = []
    ascend = module.ascend

    def recorded(state, model, evaluate, **kwargs):
        seen = np.zeros(len(state[0]), int)

        def counted(state, rows, steps):
            seen[rows] += 1
            return evaluate(state, rows, steps)
        out = ascend(state, model, counted, **kwargs)
        calls.extend(zip(out[1].tolist(), out[2].tolist(), seen.tolist()))
        return out
    monkeypatch.setattr(module, "ascend", recorded)
    return calls


@pytest.fixture(scope="session")
def mini_mc(default_exp):
    """100 trials at 20 dBm through the full pipeline (shared across tests)."""
    exp = hn.ExperimentConfig(n_trials=100, powers_dbm=[20.0])
    report = hn.run_sweep(exp)
    return report
