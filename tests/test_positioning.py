"""Closed-form pose recovery and weighted nonlinear LS refinement."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import sample_layout
from oracles import channel_params_from_vector, to_angles
from rispos import bounds as bnd
from rispos import geometry as gm
from rispos import harness as hn
from rispos import positioning as po
from rispos.errors import InfeasibleGeometry, SingularDenominator
from rispos.geometry import SPEED_OF_LIGHT, ScenarioGeometry


def _true_params(geom, gains=None):
    if gains is None:
        gains = np.full(geom.n_scatterers + 1, 1e-6, dtype=complex)
    return gm.true_channel_params(geom, gains)


def test_closed_form_ms_exact(default_geom):
    params = _true_params(default_geom)
    ms, alpha, flags = po.closed_form_ms(params, default_geom.ris,
                                         default_geom.bs)
    assert np.max(np.abs(ms - [22.0, 35.0, 1.5])) < 1e-9
    assert abs(alpha - np.deg2rad(75.0)) < 1e-9
    assert not flags["zero_range"] and not flags["alpha_wrapped"]


def test_closed_form_ms_right_angle(default_geom):
    """phi = 90 deg, theta = 0: the arccos argument is exactly zero."""
    params = _true_params(default_geom)
    psi = to_angles(params).psi_in[0]
    params.c[0], params.s[0] = 0.0, np.sin(psi)
    params.u[0] = 0.0
    _, alpha, _ = po.closed_form_ms(params, default_geom.ris, default_geom.bs)
    expect = np.mod(2 * np.pi - psi - np.pi / 2, np.pi)
    assert abs(alpha - expect) < 1e-12


def test_closed_form_ms_zero_range(default_geom):
    params = _true_params(default_geom)
    d_rb = np.linalg.norm(default_geom.ris - default_geom.bs)
    params.tau[0] = d_rb / SPEED_OF_LIGHT
    ms, _, flags = po.closed_form_ms(params, default_geom.ris, default_geom.bs)
    assert flags["zero_range"]
    assert_allclose(ms, default_geom.ris)
    params.tau[0] = 0.9 * d_rb / SPEED_OF_LIGHT
    with pytest.raises(InfeasibleGeometry):
        po.closed_form_ms(params, default_geom.ris, default_geom.bs)


def test_closed_form_scatterer_exact(default_geom):
    params = _true_params(default_geom)
    s_hat = po.closed_form_scatterer(
        params.tau[1], params.u[1], params.c[1], params.s[1],
        default_geom.ms, default_geom.alpha, default_geom.ris,
        default_geom.bs)
    assert np.max(np.abs(s_hat - [6.0, 5.0, 3.0])) < 1e-8


def _scatterer_residuals(s_hat, tau, theta, phi, psi, ms, alpha, ris, bs):
    """Residuals of the three defining equations at the recovered point."""
    direction = np.array([-np.sin(phi) * np.cos(psi),
                          -np.sin(phi) * np.sin(psi), -np.cos(phi)])
    d_sr = np.linalg.norm(s_hat - ris)
    ray = s_hat - (ris + d_sr * direction)
    split = (tau * SPEED_OF_LIGHT - np.linalg.norm(ris - bs)
             - d_sr - np.linalg.norm(s_hat - ms))
    proj = (np.linalg.norm(s_hat - ms) * np.sin(theta)
            - (s_hat[0] - ms[0]) * np.cos(alpha)
            + (s_hat[1] - ms[1]) * np.sin(alpha))
    return np.max(np.abs(ray)), abs(split), abs(proj)


def test_closed_form_scatterer_residual_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        geom = sample_layout(rng)
        params = _true_params(geom)
        ang = to_angles(params)
        s_hat = po.closed_form_scatterer(
            params.tau[1], params.u[1], params.c[1], params.s[1], geom.ms,
            geom.alpha, geom.ris, geom.bs)
        res = _scatterer_residuals(
            s_hat, params.tau[1], ang.theta_t[1], ang.phi_in[1],
            ang.psi_in[1], geom.ms, geom.alpha, geom.ris, geom.bs)
        assert max(res) < 1e-9


def test_closed_form_scatterer_zero_x_component(default_geom):
    """Scatterer straight south of the RIS: ray direction has zero x."""
    geom = ScenarioGeometry(
        bs=default_geom.bs, ris=default_geom.ris, ms=default_geom.ms,
        alpha=default_geom.alpha, scatterers=[[-6.0, 2.0, 3.0]],
        wavelength=default_geom.wavelength)
    params = _true_params(geom)
    assert abs(np.cos(to_angles(params).psi_in[1])) < 1e-12     # A = 0 case
    s_hat = po.closed_form_scatterer(
        params.tau[1], params.u[1], params.c[1], params.s[1],
        geom.ms, geom.alpha, geom.ris, geom.bs)
    assert np.max(np.abs(s_hat - [-6.0, 2.0, 3.0])) < 1e-8


def test_closed_form_scatterer_singular_denominator(default_geom):
    with pytest.raises(SingularDenominator):
        # theta = 0 and a ray orthogonal to the rotated axis: phi = pi/2,
        # psi = pi
        po.closed_form_scatterer(2e-7, 0.0, 0.0, 0.0,
                                 default_geom.ms, np.pi / 2,
                                 default_geom.ris, default_geom.bs)


def test_round_trip_inverse_of_forward_map():
    """Closed forms invert the forward map on random feasible scenarios."""
    rng = np.random.default_rng(8)
    for _ in range(50):
        geom = sample_layout(rng)
        gains = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * 1e-6
        params = _true_params(geom, gains)
        pos, _ = po.position_closed_form(params, geom.ris, geom.bs)
        assert np.max(np.abs(pos.ms - geom.ms)) < 1e-8
        assert po.wrapped_rotation_error(pos.alpha, geom.alpha) < 1e-8
        assert np.max(np.abs(pos.scatterers - geom.scatterers)) < 1e-7
        eta_back = gm.forward_map_G(pos, geom.ris, geom.bs).to_vector()
        eta_true = params.to_vector()
        assert np.max(np.abs(eta_back - eta_true)
                      / np.maximum(np.abs(eta_true), 1e-9)) < 1e-8


def test_lm_noiseless_fixed_point(default_geom):
    params = _true_params(default_geom)
    pos0, _ = po.position_closed_form(params, default_geom.ris,
                                      default_geom.bs)
    j_eta = np.eye(params.to_vector().size)
    (pos,), (diag,) = po.refine_position_lm(
        params.to_vector()[None], j_eta[None], [pos0], default_geom.ris,
        default_geom.bs)
    assert diag.converged and diag.n_iter <= 2
    assert np.linalg.norm(pos.ms - pos0.ms) < 1e-8


def test_lm_descent_contract(default_geom, setup20):
    s = setup20
    rng = np.random.default_rng(9)
    params = _true_params(default_geom, s.gains)
    j_eta = bnd.fim_channel(params, s.setup)
    noisy_vec = params.to_vector() + np.tile(
        [1e-10, 1e-8, 1e-8, 1e-4, 1e-4, 1e-4], 2) * rng.standard_normal(12)
    eta_hat = channel_params_from_vector(noisy_vec)
    pos0, _ = po.position_closed_form(eta_hat, default_geom.ris,
                                      default_geom.bs)
    (pos,), (diag,) = po.refine_position_lm(
        noisy_vec[None], j_eta[None], [pos0], default_geom.ris,
        default_geom.bs)
    hist = np.asarray(diag.objective_history)
    assert np.all(np.diff(hist) <= 0.0)
    assert hist[-1] <= hist[0]


def test_lm_identity_weight_is_plain_nls(default_geom):
    """With J = I the minimized objective is the unweighted residual norm.
    The perturbation makes r^T r about 1e-4, far above the 1e-6 stop, so
    the fit takes steps."""
    params = _true_params(default_geom)
    vec = params.to_vector()
    vec[3] += 1e-2                       # perturb one departure sine
    pos0, _ = po.position_closed_form(params, default_geom.ris,
                                      default_geom.bs)
    (pos,), (diag,) = po.refine_position_lm(
        vec[None], np.eye(vec.size)[None], [pos0], default_geom.ris,
        default_geom.bs)
    eta_fit = gm.forward_map_G(pos, default_geom.ris,
                               default_geom.bs).to_vector()
    assert diag.converged and diag.n_iter >= 1
    assert diag.objective_history[-1] < diag.objective_history[0]
    assert abs(diag.objective_history[-1]
               - np.sum((vec - eta_fit) ** 2)) < 1e-12 * max(
        diag.objective_history[-1], 1e-30)


def test_lm_step_out_of_rotation_domain_rejected(default_geom):
    """A step that pushes alpha past pi is rejected like a degenerate one."""
    params = _true_params(default_geom)
    pos0, _ = po.position_closed_form(params, default_geom.ris,
                                      default_geom.bs)
    pos0.alpha = np.pi - 1e-6
    eta0 = gm.forward_map_G(pos0, default_geom.ris, default_geom.bs).to_vector()
    jac = bnd.transformation_matrix(pos0, default_geom.ris, default_geom.bs).T
    # data whose Gauss-Newton step from pos0 raises alpha by 0.01
    dx = np.zeros(jac.shape[1])
    dx[2 * params.n_paths + 3] = 1e-2
    eta_hat = eta0 + jac @ dx
    (pos,), (diag,) = po.refine_position_lm(
        eta_hat[None], np.eye(eta_hat.size)[None], [pos0], default_geom.ris,
        default_geom.bs)
    assert 0.0 <= pos.alpha < np.pi
    assert diag.n_iter >= 1
    assert diag.objective_history[-1] <= diag.objective_history[0]


def test_lm_jacobian_only_at_accepted_points(monkeypatch):
    """A rejected LM candidate costs one forward map: the Jacobian is
    built at the start and at each accepted step but the last, which ends
    the converged fit, nowhere else. The LM of
    master seed 77, -10 dBm, trial 72 (a trial above 10x PEB) has rejected
    candidates; from a closed-form start Gauss-Newton accepts every step."""
    inputs = []
    refine = po.refine_position_lm

    def recorded(*args):
        inputs.append(args)
        return refine(*args)
    exp = hn.ExperimentConfig(master_seed=77)
    with monkeypatch.context() as m:
        m.setattr(po, "refine_position_lm", recorded)
        assert hn.run_trial(exp, -10.0, 0, 72).error is None
    calls = {"forward_map_G": 0, "transformation_matrix": 0}
    for name in calls:
        def counted(*args, _fn=getattr(po, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(po, name, counted)
    _, (diag,) = po.refine_position_lm(*inputs[0])   # the batch's stack of one
    accepted = len(diag.objective_history) - 1
    assert diag.converged and accepted == diag.n_iter
    assert calls["transformation_matrix"] == accepted
    assert calls["forward_map_G"] > accepted + 1


def test_lm_median_not_worse_than_closed_form(mini_mc):
    """Refinement purpose: LM median position error <= closed-form median."""
    recs = mini_mc.records[0]
    lm = np.array([r.sq_errors["lm"]["position"] for r in recs
                   if r.error is None])
    cf = np.array([r.sq_errors["closed_form"]["position"] for r in recs
                   if r.error is None])
    assert np.median(lm) <= np.median(cf) * 1.0000001


def test_wrapped_rotation_error():
    assert po.wrapped_rotation_error(0.05, np.pi - 0.05) == pytest.approx(0.1)
    assert po.wrapped_rotation_error(1.0, 1.2) == pytest.approx(0.2)
    assert po.wrapped_rotation_error(0.0, np.pi - 1e-9) == pytest.approx(
        1e-9, abs=1e-12)
