"""The damped Newton ascent that the AOD refinement, SAGE and the LM fit
share: its steps, its damping schedule, its step space and its stop rule,
on one fit and on a stack of fits in lockstep."""

import numpy as np
import pytest

from oracles import lone_ascend
from rispos import _damping as dm
from rispos import coarse_est as ce
from rispos import harness as hn


def _stacked(starts, models, evaluates, nats=1.0):
    """``dm.ascend`` on a stack of fits, row k starting at ``starts[k]``
    with the one-point model ``models[k](x)`` -> (A, g, basis) and test
    ``evaluates[k](x, step)`` -> the point reached or None. Returns each
    row's (point, steps, converged)."""
    def model(state, rows):
        out = [models[k](state[0][k]) for k in rows]
        bases = [basis for _, _, basis in out]
        return (np.stack([a for a, _, _ in out]),
                np.stack([g for _, g, _ in out]),
                None if all(b is None for b in bases) else bases)

    def evaluate(state, rows, steps):
        accepted = []
        for k, step in zip(rows, steps):
            new = evaluates[k](state[0][k], step)
            if new is not None:
                state[0][k] = new
            accepted.append(new is not None)
        return np.array(accepted)
    (points,), steps, converged = dm.ascend((list(starts),), model, evaluate,
                                            nats=nats)
    return list(zip(points, steps.tolist(), converged.tolist()))


def _lone(start, model, evaluate):
    """``dm.ascend`` on one fit, a stack of one."""
    return _stacked([start], [model], [evaluate])[0]


def _quadratic(curv, peak):
    """The model of -(x - peak)^T curv (x - peak) / 2 at a point."""
    return lambda x: (curv, curv @ (peak - x), None)


def _ascent(objective, rejects=0):
    """An ``evaluate`` that rejects its first ``rejects`` candidates and
    then keeps a step unless ``objective`` falls, and the list of
    candidates it was given."""
    seen = []

    def evaluate(x, step):
        seen.append(step)
        if len(seen) <= rejects:
            return None
        return x + step if objective(x + step) >= objective(x) else None
    return evaluate, seen


def test_concave_quadratic_converges_in_one_undamped_step():
    """The first undamped step reaches the peak; the decrement there is at
    rounding level, so the loop takes that null step and ends."""
    curv = np.array([[4.0, 1.0], [1.0, 3.0]])
    peak = np.array([0.5, -2.0])
    evaluate, seen = _ascent(lambda x: -(x - peak) @ curv @ (x - peak))
    x, steps, converged = _lone(np.zeros(2), _quadratic(curv, peak),
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
    x, steps, converged = _lone(np.array([3.0]), model, recorded)
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
    x, steps, converged = _lone(start, _quadratic(np.eye(2), -start),
                                 reject)
    assert (steps, converged, len(seen)) == (0, False, 17)
    assert x is start


def test_an_indefinite_model_is_never_converged():
    """At a saddle the gradient vanishes, but the curvature has no
    Cholesky factor, so the decrement is never taken: damped steps that
    go nowhere run to the step cap unconverged."""
    curv = np.diag([1.0, -1.0])
    x, steps, converged = _lone(
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
    x, steps, converged = _lone(np.zeros(3), model, evaluate)
    assert converged and steps == 2
    off_span = np.eye(3) - basis @ basis.T
    assert max(np.max(np.abs(off_span @ step)) for step in seen) < 1e-15
    np.testing.assert_allclose(x, basis @ basis.T @ peak, atol=1e-15)


def test_a_stack_ends_every_row_where_its_lone_fit_ends():
    """Six fits in lockstep: one that converges through damped steps, one
    rejected past the damping limit, one that runs the step cap, one with
    an indefinite model (its rows of the stacked Cholesky factor fail),
    one whose step space is a basis, and one that moves at a damping of 10
    to a point whose undamped decrement, 1.5e-6 nats, is above the stop
    while its damped one is below it. Each row takes the candidates, and
    ends at the point, step count and flag, of the one-fit loop."""
    def overshoot(x):
        r = 1.0 + x[0] ** 2
        return (np.diag([r ** -1.5, 2.0]),
                np.array([-x[0] / np.sqrt(r), -2.0 * x[1]]), None)

    def f_overshoot(x):
        return -np.sqrt(1.0 + x[0] ** 2) - x[1] ** 2
    indefinite = np.diag([1.0, -1.0])
    basis = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    peak = np.array([1.0, 3.0])
    near = np.array([np.sqrt(1.5e-6) * 1.1, 0.0])
    fits = [
        (np.array([3.0, 1.0]), overshoot, lambda: _ascent(f_overshoot)),
        (np.array([1.0, 2.0]), _quadratic(np.eye(2), -np.array([1.0, 2.0])),
         lambda: _ascent(None, rejects=np.inf)),
        (np.zeros(2), lambda x: (1e-3 * np.eye(2), np.ones(2), None),
         lambda: _ascent(lambda x: 0.0)),
        (np.zeros(2), lambda x: (indefinite, -indefinite @ x, None),
         lambda: _ascent(lambda x: 0.0)),
        (np.zeros(2), lambda x: (np.eye(2), peak - x, basis),
         lambda: _ascent(lambda x: -np.sum((x - peak) ** 2))),
        (np.zeros(2), _quadratic(np.eye(2), near),
         lambda: _ascent(lambda x: -np.sum((x - near) ** 2), rejects=5)),
    ]
    stack_eval, stack_seen = zip(*(make() for _, _, make in fits))
    stacked = _stacked([x0 for x0, _, _ in fits], [m for _, m, _ in fits],
                       stack_eval)
    ends = []
    for k, (x0, model, make) in enumerate(fits):
        evaluate, seen = make()
        x, steps, converged = lone_ascend(x0, model, evaluate)
        ends.append((steps, converged))
        assert stacked[k][1:] == (steps, converged), k
        assert np.array_equal(stacked[k][0], x), k
        assert len(stack_seen[k]) == len(seen), k
        for a, b in zip(stack_seen[k], seen):
            assert np.array_equal(a, b), k
        if k == 0:
            assert steps > 2 and len(seen) > steps
        if k == 1:
            assert len(seen) == 17
    assert ends == [(ends[0][0], True), (0, False), (dm.MAX_STEPS, False),
                    (dm.MAX_STEPS, False), (2, True), (3, True)]


def test_the_aod_decrement_is_read_in_nats(monkeypatch):
    """The AOD refinement works in the units of F, sigma^2 times nats, and
    hands ``ascend`` the scale 1/sigma^2, so its stop rule reads the
    decrement in nats. On reference trial 0 at 20 dBm, the undamped step
    from the second accepted point predicts a gain g^T x / (2 sigma^2) of
    about 2e-4 nats, within 10 % of its actual F gain over sigma^2."""
    calls = []
    ascend = ce.ascend

    def recorded(state, model, evaluate, nats):
        # the start of the trial's stack of one, before the ascent moves it
        calls.append((tuple(x.copy() for x in state), model, evaluate, nats))
        return ascend(state, model, evaluate, nats=nats)
    monkeypatch.setattr(ce, "ascend", recorded)
    exp = hn.ExperimentConfig(stage="aod_mle")
    rec = hn.run_trial(exp, 20.0, exp.powers_dbm.index(20.0), 0)
    assert rec.flags["aod_steps"] >= 2
    [(state, model, evaluate, nats)] = calls
    assert nats == 1.0 / exp.system().noise_power
    row = np.arange(1)
    for k in range(3):
        curv, grad, bases = model(state, row)
        assert bases is None
        step = np.linalg.solve(curv[0], grad[0])
        new = tuple(x.copy() for x in state)    # evaluate writes its point
        assert evaluate(new, row, step[None])[0]
        if k < 2:
            state = new
    predicted = 0.5 * nats * (grad[0] @ step)
    gain = nats * (new[1][0, 0] - state[1][0, 0])
    assert 1e-5 < predicted < 1e-2
    assert gain == pytest.approx(predicted, rel=0.1)
