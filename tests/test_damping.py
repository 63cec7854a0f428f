"""The damped Newton ascent that the AOD refinement, SAGE and the LM fit
share: its steps, its damping schedule, its step space and its stop rule."""

import numpy as np
import pytest

from rispos import _damping as dm
from rispos import coarse_est as ce
from rispos import harness as hn


def _quadratic(curv, peak):
    """The model of -(x - peak)^T curv (x - peak) / 2 at a point."""
    return lambda x: (curv, curv @ (peak - x), None)


def _ascent(objective):
    """An ``evaluate`` that keeps a step unless ``objective`` falls, and the
    list of candidates it was given."""
    seen = []

    def evaluate(x, step):
        seen.append(step)
        return x + step if objective(x + step) >= objective(x) else None
    return evaluate, seen


def test_concave_quadratic_converges_in_one_undamped_step():
    """The first undamped step reaches the peak; the decrement there is at
    rounding level, so the loop takes that null step and ends."""
    curv = np.array([[4.0, 1.0], [1.0, 3.0]])
    peak = np.array([0.5, -2.0])
    evaluate, seen = _ascent(lambda x: -(x - peak) @ curv @ (x - peak))
    x, steps, converged = dm.ascend(np.zeros(2), _quadratic(curv, peak),
                                    evaluate)
    assert converged and steps == 2 and len(seen) == 2
    np.testing.assert_allclose(seen[0], peak, rtol=0, atol=1e-14)
    np.testing.assert_allclose(x, peak, rtol=0, atol=1e-14)


def test_overshooting_steps_are_damped_and_the_ascent_stays_monotone():
    """f(x) = -sqrt(1 + x^2): the Newton step from x is -x^3, which
    overshoots from |x| > 1, so candidates are rejected and damped; every
    accepted point raises f, and the ascent converges on the peak."""
    def f(x):
        return -np.sqrt(1.0 + x[0] ** 2)

    def model(x):
        r = 1.0 + x[0] ** 2
        return np.array([[r ** -1.5]]), np.array([-x[0] / np.sqrt(r)]), None

    evaluate, seen = _ascent(f)
    visited = []

    def recorded(x, step):
        out = evaluate(x, step)
        if out is not None:
            visited.append(f(out))
        return out
    x, steps, converged = dm.ascend(np.array([3.0]), model, recorded)
    assert converged and abs(x[0]) < 1e-3
    assert len(seen) > steps == len(visited)
    assert np.all(np.diff([f(np.array([3.0]))] + visited) > 0.0)


def test_an_always_rejecting_fit_stalls_past_the_damping_limit():
    """The undamped candidate and one at each damping 1e-3, 1e-2, ...,
    1e12: 17 candidates, then the fit stalls where it started."""
    seen = []

    def reject(x, step):
        seen.append(step)
        return None
    start = np.array([1.0, 2.0])
    x, steps, converged = dm.ascend(start, _quadratic(np.eye(2), -start),
                                    reject)
    assert (steps, converged, len(seen)) == (0, False, 17)
    assert x is start


def test_an_indefinite_model_is_never_converged():
    """At a saddle the gradient vanishes, but the curvature has no
    Cholesky factor, so the decrement is never taken: damped steps that
    go nowhere run to the step cap unconverged."""
    curv = np.diag([1.0, -1.0])
    x, steps, converged = dm.ascend(
        np.zeros(2), lambda x: (curv, -curv @ x, None),
        lambda x, step: x + step)
    assert not converged and steps == dm.MAX_STEPS
    assert np.array_equal(x, np.zeros(2))


def test_steps_stay_in_the_span_of_the_basis():
    """With the step space spanned by e_0 and (e_1 + e_2)/sqrt(2), every
    candidate lies in that span, and the ascent ends at the projection of
    the peak onto it: one step reaches it, and the null step there ends
    the fit."""
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    basis[:, 1] /= np.sqrt(2.0)
    peak = np.array([1.0, 2.0, 3.0])
    evaluate, seen = _ascent(lambda x: -np.sum((x - peak) ** 2))

    def model(x):
        return np.eye(3), peak - x, basis
    x, steps, converged = dm.ascend(np.zeros(3), model, evaluate)
    assert converged and steps == 2
    off_span = np.eye(3) - basis @ basis.T
    assert max(np.max(np.abs(off_span @ step)) for step in seen) < 1e-15
    np.testing.assert_allclose(x, basis @ basis.T @ peak, atol=1e-15)


def test_the_aod_decrement_is_read_in_nats(monkeypatch):
    """The AOD refinement works in the units of F, sigma^2 times nats, and
    hands ``ascend`` the scale 1/sigma^2, so its stop rule reads the
    decrement in nats. On reference trial 0 at 20 dBm, the undamped step
    from the second accepted point predicts a gain g^T x / (2 sigma^2) of
    about 2e-4 nats, within 10 % of its actual F gain over sigma^2."""
    calls = []
    ascend = ce.ascend

    def recorded(state, model, evaluate, nats):
        calls.append((state, model, evaluate, nats))
        return ascend(state, model, evaluate, nats=nats)
    monkeypatch.setattr(ce, "ascend", recorded)
    exp = hn.ExperimentConfig(stage="aod_mle")
    setup = hn.power_setup(exp, 20.0)
    rec = hn.run_trial(exp, 20.0, exp.powers_dbm.index(20.0), 0, setup)
    assert rec.flags["aod_steps"] >= 2
    [(state, model, evaluate, nats)] = calls
    assert nats == 1.0 / setup.cfg.noise_power
    for k in range(3):
        curv, grad, basis = model(state)
        assert basis is None
        step = np.linalg.solve(curv, grad)
        new = evaluate(state, step)
        assert new is not None
        if k < 2:
            state = new
    predicted = 0.5 * nats * (grad @ step)
    gain = nats * (new[1][0] - state[1][0])
    assert 1e-5 < predicted < 1e-2
    assert gain == pytest.approx(predicted, rel=0.1)
