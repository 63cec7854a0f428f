"""Position, rotation, and scatterer recovery from channel parameters.

Closed forms invert the geometric relations exactly in the noiseless
case; a weighted Gauss-Newton/Levenberg-Marquardt refinement then fits
all channel parameters jointly with the estimated Fisher information as
the weight. Both run on a stack of K estimates, as a sweep's batch holds
them, each row ending as it ends alone: the closed form in one pass with
a typed error per row, the fit in lockstep. Both read the channel
parameters as they are held: an arrival (c, s) is the ray direction
[sqrt(1 - c^2 - s^2), -s, -c] from the RIS, a departure sine u enters
the scatterer projection as it is, and only the rotation angle goes
through angles, with psi_in from ``params.arrival_azimuth``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._damping import ascend
from .bounds import transformation_matrix
from .errors import (ArccosDomain, DegenerateGeometry, InfeasibleGeometry,
                     SingularDenominator)
from .geometry import SPEED_OF_LIGHT, forward_map_G
from .params import ChannelParams, PositionParams, arrival_azimuth

ARCCOS_CLAMP_TOL = 1e-9


def position_closed_form(params: ChannelParams, ris: np.ndarray,
                         bs: np.ndarray):
    """Closed-form pose of each of K channel estimates stacked (K, Q+1).

    The MS sits on the ray leaving the RIS along the VLoS arrival, at the
    range the VLoS delay implies; the rotation angle follows from the
    departure sine and the arrival angles, alpha = (2 pi - psi_in) -
    arccos(sin theta_t / sin phi_in). Each scatterer solves its path's
    three equations (RIS ray direction, delay split, departure-sine
    projection), parametrized by the scatterer-RIS range so that only the
    shared projection denominator is divided by.

    Returns the K poses stacked, the flags ``zero_range`` and
    ``alpha_wrapped`` as lists of K entries, and per row None or the
    error of its first failing check: ``InfeasibleGeometry``,
    ``DegenerateGeometry`` (a vertical VLoS arrival), ``ArccosDomain``,
    then ``SingularDenominator``. A failing row's pose is NaN.
    """
    ris = np.asarray(ris, float)
    c, s, u = params.c, params.s, params.u
    ray = np.stack([np.sqrt(np.maximum(1.0 - c * c - s * s, 0.0)), -s, -c],
                   axis=-1)                                # (K, Q+1, 3)
    # each path's length beyond the RIS-BS leg; the VLoS one is the range
    reach = (params.tau * SPEED_OF_LIGHT
             - np.linalg.norm(ris - np.asarray(bs, float)))
    ms = ris + reach[:, :1] * ray[:, 0]
    sin_phi = np.sqrt(np.maximum(1.0 - c[:, 0] * c[:, 0], 0.0))
    # a failing row may divide by zero here; its check below reports it
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = u[:, 0] / sin_phi
        alpha_raw = ((2.0 * np.pi - arrival_azimuth(c[:, 0], s[:, 0]))
                     - np.arccos(np.clip(ratio, -1.0, 1.0)))
        alpha = np.mod(alpha_raw, np.pi)
        cos_a, sin_a = np.cos(alpha)[:, None], np.sin(alpha)[:, None]
        denom = u[:, 1:] + ray[:, 1:, 0] * cos_a - ray[:, 1:, 1] * sin_a
        d_sr = (reach[:, 1:] * u[:, 1:] - (ris[0] - ms[:, :1]) * cos_a
                + (ris[1] - ms[:, 1:2]) * sin_a) / denom
    scatterers = ris + d_sr[..., None] * ray[:, 1:]
    checks = (
        (reach[:, 0] < 0.0, InfeasibleGeometry,
         "VLoS delay shorter than the RIS-BS leg"),
        (sin_phi < 1e-12, DegenerateGeometry,
         "vertical arrival leaves rotation unobservable"),
        (np.abs(ratio) > 1.0 + ARCCOS_CLAMP_TOL, ArccosDomain,
         "rotation arccos argument {} out of range"),
        (np.any(np.abs(denom) < 1e-12, axis=-1), SingularDenominator,
         "scatterer projection denominator vanished"))
    errors = [None] * len(ms)
    for fails, error, message in checks:       # a row's first failure
        for k in np.flatnonzero(fails):
            if errors[k] is None:
                errors[k] = error(message.format(ratio[k].tolist()))
    bad = np.array([e is not None for e in errors], dtype=bool)
    ms[bad], alpha[bad], scatterers[bad] = np.nan, np.nan, np.nan
    flags = {"zero_range": (reach[:, 0] <= 0.0).tolist(),
             "alpha_wrapped": (np.abs(alpha - alpha_raw) > 1e-12).tolist()}
    return (PositionParams(gains=params.gains.copy(), ms=ms, alpha=alpha,
                           scatterers=scatterers), flags, errors)


@dataclass
class LmDiagnostics:
    """Outcome of one weighted nonlinear least-squares refinement:
    r^T W r at the start and after each accepted step, the accepted
    steps, and whether the fit converged."""

    objective_history: list = field(default_factory=list)
    n_iter: int = 0
    converged: bool = False


def _weight_matrix(j_eta: np.ndarray) -> np.ndarray:
    """Symmetrize and floor the FIM weight so the objective is PSD; of
    each FIM of a stack (K, n, n)."""
    sym = 0.5 * (j_eta + j_eta.swapaxes(-1, -2))
    vals, vecs = np.linalg.eigh(sym)
    floor = 1e-12 * np.maximum(np.max(np.abs(vals), axis=-1),
                               np.finfo(float).tiny)
    return ((vecs * np.maximum(vals, floor[..., None])[..., None, :])
            @ vecs.swapaxes(-1, -2))


def refine_position_lm(eta_hat: np.ndarray, j_eta: np.ndarray,
                       start: np.ndarray, ris: np.ndarray, bs: np.ndarray):
    """Minimize the FIM-weighted channel-parameter misfit over the pose.

    The residual r is the estimated channel vector minus the geometric
    map of the position parameters, and the fit maximizes -r^T W r / 2,
    in nats for W the channel FIM, by ``_damping.ascend``: with T the
    transformation matrix d eta / d eta~, its gradient is T W r and its
    Gauss-Newton curvature T W T^T, so the first step is Gauss-Newton and
    the fit takes one last step and ends once that decrement is below
    1e-6 nats. A candidate is
    kept when it stays in the rotation domain, its legs are not
    degenerate and r^T W r does not rise; it costs one ``forward_map_G``,
    and T is built only at accepted points.

    A stack of K fits, ``eta_hat`` (K, 6(Q+1)), ``j_eta`` (K, 6(Q+1),
    6(Q+1)) and the start poses' vectors ``start`` (K, 5Q+6), runs in
    lockstep, each fit ending where it ends alone, with one
    ``forward_map_G`` of the stacked candidates per pass. Returns the K
    poses as one stacked ``PositionParams`` and a list of K
    ``LmDiagnostics``; when any start's legs are degenerate it raises
    ``DegenerateGeometry``.
    """
    eta_hat = np.asarray(eta_hat, dtype=float)
    weight = _weight_matrix(j_eta)
    alpha_at = 2 * (eta_hat.shape[-1] // 6) + 3  # alpha's entry of a vector

    def objectives(r, rows):
        """r^T W r of each row's residual."""
        return (r[:, None, :] @ weight[rows] @ r[:, :, None])[:, 0, 0]

    def residuals(vec, rows):
        return eta_hat[rows] - forward_map_G(
            PositionParams.from_vector(vec), ris, bs).to_vector()

    def model(state, rows):
        """T W T^T and T W r at the rows' accepted points."""
        t_mat = transformation_matrix(PositionParams.from_vector(
            state[0][rows]), ris, bs)
        t_w = t_mat @ weight[rows]
        return (t_w @ t_mat.swapaxes(1, 2),
                (t_w @ state[1][rows, :, None])[..., 0], None)

    def evaluate(state, rows, steps):
        """Keep each candidate that stays in the rotation domain, is not
        degenerate, and whose r^T W r does not rise and is not NaN."""
        vec = state[0][rows] + steps
        inside = (0.0 <= vec[:, alpha_at]) & (vec[:, alpha_at] < np.pi)
        r = np.full(state[1][rows].shape, np.nan)
        try:
            if inside.any():
                r[inside] = residuals(vec[inside], rows[inside])
        except DegenerateGeometry:          # find the rows that degenerate
            for i in np.flatnonzero(inside):
                try:
                    r[i] = residuals(vec[i:i + 1], rows[i:i + 1])[0]
                except DegenerateGeometry:
                    pass
        obj = objectives(r, rows)
        keep = obj <= state[2][rows]
        kept = rows[keep]
        for x, new in zip(state, (vec, r, obj)):
            x[kept] = new[keep]
        for k, value in zip(kept, obj[keep].tolist()):
            diags[k].objective_history.append(value)
        return keep

    rows = np.arange(len(eta_hat))
    vec = np.array(start, dtype=float)
    r = residuals(vec, rows)
    obj = objectives(r, rows)
    diags = [LmDiagnostics(objective_history=[value])
             for value in obj.tolist()]
    (vec, _, _), steps, converged = ascend((vec, r, obj), model, evaluate)
    for k, diag in enumerate(diags):
        diag.n_iter, diag.converged = int(steps[k]), bool(converged[k])
    return PositionParams.from_vector(vec), diags


def wrapped_rotation_error(alpha_est, alpha_true):
    """Rotation error on the half-circle (alpha is defined modulo pi), of
    each entry of arrays of rotations."""
    d = np.mod(alpha_est - alpha_true, np.pi)
    return np.minimum(d, np.pi - d)
