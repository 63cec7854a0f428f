"""Closed-form pose recovery and weighted nonlinear LS refinement."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import sample_layout, sample_layout_with
from oracles import channel_params_from_vector, to_angles
from rispos import bounds as bnd
from rispos import geometry as gm
from rispos import harness as hn
from rispos import positioning as po
from rispos.errors import (ArccosDomain, DegenerateGeometry,
                           InfeasibleGeometry, SingularDenominator)
from rispos.geometry import SPEED_OF_LIGHT, ScenarioGeometry
from rispos.params import ChannelParams, PositionParams


def _true_params(geom, gains=None):
    if gains is None:
        gains = np.full(geom.n_scatterers + 1, 1e-6, dtype=complex)
    return gm.true_channel_params(geom, gains)


def _closed_form(params, geom):
    """The closed form of the lone ``params`` as a stack of one: its pose,
    as lone parameters, its flags and its error."""
    poses, flags, (error,) = po.position_closed_form(params.take(None),
                                                     geom.ris, geom.bs)
    return (PositionParams.from_vector(poses.to_vector()[0]),
            {name: value[0] for name, value in flags.items()}, error)


def _lm(eta_hat, j_eta, pos0, geom):
    """The LM fit from the lone pose ``pos0`` as a stack of one: its pose,
    as lone parameters, and its diagnostics."""
    poses, (diag,) = po.refine_position_lm(
        eta_hat[None], j_eta[None], pos0.to_vector()[None], geom.ris,
        geom.bs)
    return PositionParams.from_vector(poses.to_vector()[0]), diag


def test_closed_form_ms_exact(default_geom):
    params = _true_params(default_geom)
    pos, flags, error = _closed_form(params, default_geom)
    assert error is None
    assert np.max(np.abs(pos.ms - [22.0, 35.0, 1.5])) < 1e-9
    assert abs(pos.alpha - np.deg2rad(75.0)) < 1e-9
    assert not flags["zero_range"] and not flags["alpha_wrapped"]


def test_closed_form_ms_right_angle(default_geom):
    """phi = 90 deg, theta = 0: the arccos argument is exactly zero."""
    params = _true_params(default_geom)
    psi = to_angles(params).psi_in[0]
    params.c[0], params.s[0] = 0.0, np.sin(psi)
    params.u[0] = 0.0
    pos, _, error = _closed_form(params, default_geom)
    expect = np.mod(2 * np.pi - psi - np.pi / 2, np.pi)
    assert error is None
    assert abs(pos.alpha - expect) < 1e-12


def test_closed_form_ms_zero_range(default_geom):
    params = _true_params(default_geom)
    d_rb = np.linalg.norm(default_geom.ris - default_geom.bs)
    params.tau[0] = d_rb / SPEED_OF_LIGHT
    pos, flags, error = _closed_form(params, default_geom)
    assert error is None and flags["zero_range"]
    assert_allclose(pos.ms, default_geom.ris)
    params.tau[0] = 0.9 * d_rb / SPEED_OF_LIGHT
    assert type(_closed_form(params, default_geom)[2]) is InfeasibleGeometry


def test_closed_form_scatterer_exact(default_geom):
    params = _true_params(default_geom)
    pos, _, error = _closed_form(params, default_geom)
    assert error is None
    assert np.max(np.abs(pos.scatterers[0] - [6.0, 5.0, 3.0])) < 1e-8


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
    """The scatterer solves its three equations at the recovered pose."""
    rng = np.random.default_rng(7)
    for _ in range(50):
        geom = sample_layout(rng)
        params = _true_params(geom)
        ang = to_angles(params)
        pos, _, error = _closed_form(params, geom)
        assert error is None
        res = _scatterer_residuals(
            pos.scatterers[0], params.tau[1], ang.theta_t[1], ang.phi_in[1],
            ang.psi_in[1], pos.ms, pos.alpha, geom.ris, geom.bs)
        assert max(res) < 1e-9


def test_closed_form_scatterer_zero_x_component(default_geom):
    """Scatterer straight south of the RIS: ray direction has zero x."""
    geom = ScenarioGeometry(
        bs=default_geom.bs, ris=default_geom.ris, ms=default_geom.ms,
        alpha=default_geom.alpha, scatterers=[[-6.0, 2.0, 3.0]],
        wavelength=default_geom.wavelength)
    params = _true_params(geom)
    assert abs(np.cos(to_angles(params).psi_in[1])) < 1e-12     # A = 0 case
    pos, _, error = _closed_form(params, geom)
    assert error is None
    assert np.max(np.abs(pos.scatterers[0] - [-6.0, 2.0, 3.0])) < 1e-8


def test_closed_form_scatterer_singular_denominator(default_geom):
    """A VLoS path with theta = 0 and phi = pi/2, psi = pi puts alpha at
    pi/2; a scatterer ray along x is then orthogonal to the rotated
    axis."""
    params = ChannelParams(tau=[2e-7, 2e-7], gains=[1.0, 1.0], u=[0.0, 0.0],
                           c=[0.0, 0.0], s=[0.0, 0.0])
    assert type(_closed_form(params, default_geom)[2]) is SingularDenominator


def _failing_closed_form_row(params, error, column):
    """A copy of the lone ``params`` on which the closed form meets
    ``error``; a ``SingularDenominator`` in the scatterer column
    ``column``."""
    bad = params.copy()
    if error is InfeasibleGeometry:         # shorter than the RIS-BS leg
        bad.tau[0] = 10.0 / SPEED_OF_LIGHT
    elif error is DegenerateGeometry:       # a vertical VLoS arrival
        bad.c[0], bad.s[0] = 1.0, 0.0
    elif error is ArccosDomain:             # sin theta_t > sin phi_in
        bad.u[0], bad.c[0], bad.s[0] = 0.99, 0.9, 0.0
    else:
        # theta = 0, phi = pi/2 and psi = pi put alpha at pi/2, where the
        # denominator of path q is u + s: a ray along x makes it 0
        bad.u[0] = bad.c[0] = bad.s[0] = 0.0
        bad.u[column] = bad.c[column] = bad.s[column] = 0.0
        for q in range(1, bad.n_paths):
            assert bool(abs(bad.u[q] + bad.s[q]) < 1e-12) == (q == column)
    return bad


@pytest.mark.parametrize("n_scatterers,error,column", [
    (1, InfeasibleGeometry, None), (1, DegenerateGeometry, None),
    (1, ArccosDomain, None), (1, SingularDenominator, 1),
    (2, InfeasibleGeometry, None), (2, DegenerateGeometry, None),
    (2, ArccosDomain, None), (2, SingularDenominator, 1),
    (2, SingularDenominator, 2),
], ids=["infeasible", "degenerate", "arccos", "singular", "q2_infeasible",
        "q2_degenerate", "q2_arccos", "q2_singular_1", "q2_singular_2"])
def test_stacked_closed_form_keeps_a_failing_row_to_itself(n_scatterers,
                                                           error, column):
    """The closed form on a stack runs each row as on a stack of one: with
    a failing row between two good ones, each good row's pose and flags
    equal its stack of one's bit for bit, and the failing row carries the
    typed error of its stack of one, class and message, and a NaN pose,
    without stopping the others."""
    rng = np.random.default_rng(n_scatterers)
    rows = [_true_params(sample_layout_with(rng, n_scatterers))
            for _ in range(3)]
    rows[1] = _failing_closed_form_row(rows[1], error, column)
    geom = sample_layout(rng)                   # the shared RIS and BS
    poses, flags, errors = po.position_closed_form(
        ChannelParams.stack(rows), geom.ris, geom.bs)
    assert [e is None for e in errors] == [True, False, True]
    for k, row in enumerate(rows):
        alone, lone_flags, (lone_error,) = po.position_closed_form(
            row.take(None), geom.ris, geom.bs)
        if k == 1:
            assert type(lone_error) is error and type(errors[k]) is error
            assert str(errors[k]) == str(lone_error)
            assert np.all(np.isnan(poses.ms[k])) and np.isnan(poses.alpha[k])
            continue
        assert lone_error is None
        assert (poses.to_vector()[k].tobytes()
                == alone.to_vector()[0].tobytes()), k
        assert ({name: v[k] for name, v in flags.items()}
                == {name: v[0] for name, v in lone_flags.items()})


def test_round_trip_inverse_of_forward_map():
    """Closed forms invert the forward map on random feasible scenarios."""
    rng = np.random.default_rng(8)
    for _ in range(50):
        geom = sample_layout(rng)
        gains = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) * 1e-6
        params = _true_params(geom, gains)
        pos, _, error = _closed_form(params, geom)
        assert error is None
        assert np.max(np.abs(pos.ms - geom.ms)) < 1e-8
        assert po.wrapped_rotation_error(pos.alpha, geom.alpha) < 1e-8
        assert np.max(np.abs(pos.scatterers - geom.scatterers)) < 1e-7
        eta_back = gm.forward_map_G(pos, geom.ris, geom.bs).to_vector()
        eta_true = params.to_vector()
        assert np.max(np.abs(eta_back - eta_true)
                      / np.maximum(np.abs(eta_true), 1e-9)) < 1e-8


def test_lm_noiseless_fixed_point(default_geom):
    params = _true_params(default_geom)
    pos0, _, _ = _closed_form(params, default_geom)
    j_eta = np.eye(params.to_vector().size)
    pos, diag = _lm(params.to_vector(), j_eta, pos0, default_geom)
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
    pos0, _, _ = _closed_form(eta_hat, default_geom)
    pos, diag = _lm(noisy_vec, j_eta, pos0, default_geom)
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
    pos0, _, _ = _closed_form(params, default_geom)
    pos, diag = _lm(vec, np.eye(vec.size), pos0, default_geom)
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
    pos0, _, _ = _closed_form(params, default_geom)
    pos0.alpha = np.pi - 1e-6
    eta0 = gm.forward_map_G(pos0, default_geom.ris, default_geom.bs).to_vector()
    jac = bnd.transformation_matrix(pos0, default_geom.ris, default_geom.bs).T
    # data whose Gauss-Newton step from pos0 raises alpha by 0.01
    dx = np.zeros(jac.shape[1])
    dx[2 * params.n_paths + 3] = 1e-2
    eta_hat = eta0 + jac @ dx
    pos, diag = _lm(eta_hat, np.eye(eta_hat.size), pos0, default_geom)
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
