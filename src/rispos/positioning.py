"""Position, rotation, and scatterer recovery from channel parameters.

Closed forms invert the geometric relations exactly in the noiseless
case; a weighted Gauss-Newton/Levenberg-Marquardt refinement then fits
all channel parameters jointly with the estimated Fisher information as
the weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import transformation_matrix
from .errors import ArccosDomain, DegenerateGeometry, SingularDenominator
from .geometry import SPEED_OF_LIGHT, forward_map_G, ms_ris_range
from .params import ChannelParams, PositionParams

ARCCOS_CLAMP_TOL = 1e-9

# Levenberg-Marquardt damping and termination
_LM_DAMPING = 1e-3            # initial damping
_LM_DAMPING_UP = 10.0         # factor after a rejected step
_LM_DAMPING_DOWN = 0.1        # factor after an accepted step
_LM_DAMPING_LIMIT = 1e12      # stall once the damping passes this
_LM_MAX_ITER = 100
_LM_GRAD_TOL = 1e-10          # max |gradient| that counts as converged
_LM_STEP_TOL = 1e-12          # relative step that counts as converged


def closed_form_ms(params: ChannelParams, ris: np.ndarray,
                   bs: np.ndarray) -> tuple[np.ndarray, float, dict]:
    """MS position and rotation from the VLoS path parameters.

    The MS sits on the ray leaving the RIS along the arrival direction
    at the range implied by the VLoS delay; the rotation angle follows
    from the departure/arrival angle pair.
    """
    flags = {"zero_range": False, "alpha_wrapped": False}
    rng = ms_ris_range(float(params.tau[0]), ris, bs)
    if rng <= 0.0:
        flags["zero_range"] = True
    phi, psi = float(params.phi_in[0]), float(params.psi_in[0])
    direction = np.array([-np.sin(phi) * np.cos(psi),
                          -np.sin(phi) * np.sin(psi),
                          -np.cos(phi)])
    ms = np.asarray(ris, float) + rng * direction

    sin_phi = np.sin(phi)
    if abs(sin_phi) < 1e-12:
        raise DegenerateGeometry("vertical arrival leaves rotation unobservable")
    ratio = np.sin(params.theta_t[0]) / sin_phi
    if abs(ratio) > 1.0 + ARCCOS_CLAMP_TOL:
        raise ArccosDomain(f"rotation arccos argument {ratio} out of range")
    alpha_raw = (2.0 * np.pi - psi) - np.arccos(np.clip(ratio, -1.0, 1.0))
    alpha = float(np.mod(alpha_raw, np.pi))
    if abs(alpha - alpha_raw) > 1e-12:
        flags["alpha_wrapped"] = True
    return ms, alpha, flags


def closed_form_scatterer(tau_q: float, theta_q: float, phi_q: float,
                          psi_q: float, ms: np.ndarray, alpha: float,
                          ris: np.ndarray, bs: np.ndarray) -> np.ndarray:
    """Scatterer coordinates from one NLoS path and the recovered MS pose.

    Solves the three-equation system (RIS ray direction, delay split,
    departure-angle projection), parametrized by the scatterer-RIS range
    so only the shared projection denominator is ever divided by.
    """
    ris = np.asarray(ris, float)
    direction = np.array([-np.sin(phi_q) * np.cos(psi_q),
                          -np.sin(phi_q) * np.sin(psi_q),
                          -np.cos(phi_q)])
    a_coef, b_coef = direction[0], direction[1]
    d_total = tau_q * SPEED_OF_LIGHT - np.linalg.norm(ris - np.asarray(bs, float))
    sin_t = np.sin(theta_q)
    denom = sin_t + a_coef * np.cos(alpha) - b_coef * np.sin(alpha)
    if abs(denom) < 1e-12:
        raise SingularDenominator("scatterer projection denominator vanished")
    d_sr = (d_total * sin_t
            - (ris[0] - ms[0]) * np.cos(alpha)
            + (ris[1] - ms[1]) * np.sin(alpha)) / denom
    return ris + d_sr * direction


def position_closed_form(params: ChannelParams, ris: np.ndarray,
                         bs: np.ndarray) -> tuple[PositionParams, dict]:
    """Closed-form initialization of all position-level parameters."""
    ms, alpha, flags = closed_form_ms(params, ris, bs)
    scatterers = np.empty((params.n_paths - 1, 3))
    for q in range(1, params.n_paths):
        scatterers[q - 1] = closed_form_scatterer(
            float(params.tau[q]), float(params.theta_t[q]),
            float(params.phi_in[q]), float(params.psi_in[q]),
            ms, alpha, ris, bs)
    pos = PositionParams(gains=params.gains.copy(), ms=ms, alpha=alpha,
                         scatterers=scatterers)
    return pos, flags


@dataclass
class LmDiagnostics:
    """Outcome of one weighted nonlinear least-squares refinement."""

    objective_history: list = field(default_factory=list)
    n_iter: int = 0
    converged: bool = False
    stalled: bool = False
    grad_norm: float = np.inf


def _weight_matrix(j_eta: np.ndarray) -> np.ndarray:
    """Symmetrize and floor the FIM weight so the objective is PSD."""
    sym = 0.5 * (j_eta + j_eta.T)
    vals, vecs = np.linalg.eigh(sym)
    floor = 1e-12 * max(float(np.max(np.abs(vals))), np.finfo(float).tiny)
    return (vecs * np.maximum(vals, floor)) @ vecs.T


def _map_and_jacobian(pos: PositionParams, ris, bs):
    eta = forward_map_G(pos, ris, bs).to_vector()
    jac = transformation_matrix(pos, ris, bs).T     # d eta / d eta~
    return eta, jac


def refine_position_lm(eta_hat: np.ndarray, j_eta: np.ndarray,
                       pos_init: PositionParams,
                       ris: np.ndarray, bs: np.ndarray
                       ) -> tuple[PositionParams, LmDiagnostics]:
    """Minimize the FIM-weighted channel-parameter misfit over the pose.

    The residual is the estimated channel vector minus the geometric map
    of the position parameters; accepted steps never increase the
    objective and the damping never accepts an increasing one.
    """
    eta_hat = np.asarray(eta_hat, dtype=float)
    weight = _weight_matrix(j_eta)

    x = pos_init.to_vector()
    diag = LmDiagnostics()
    eta, jac = _map_and_jacobian(pos_init, ris, bs)
    r = eta_hat - eta
    obj = float(r @ weight @ r)
    diag.objective_history.append(obj)

    lam = _LM_DAMPING
    best_x, best_obj = x.copy(), obj
    for it in range(_LM_MAX_ITER):
        diag.n_iter = it + 1
        jw = jac.T @ weight
        grad = 2.0 * jw @ r
        diag.grad_norm = float(np.max(np.abs(grad)))
        if diag.grad_norm <= _LM_GRAD_TOL:
            diag.converged = True
            break
        hess = jw @ jac
        scale = np.maximum(np.diag(hess), 1e-300)
        accepted = False
        while lam <= _LM_DAMPING_LIMIT:
            try:
                step = np.linalg.solve(hess + lam * np.diag(scale), jw @ r)
            except np.linalg.LinAlgError:
                lam *= _LM_DAMPING_UP
                continue
            x_new = x + step
            pos_new = PositionParams.from_vector(x_new)
            try:
                if not 0.0 <= pos_new.alpha < np.pi:
                    raise DegenerateGeometry("step left the rotation domain")
                eta_new, jac_new = _map_and_jacobian(pos_new, ris, bs)
            except DegenerateGeometry:
                lam *= _LM_DAMPING_UP
                continue
            r_new = eta_hat - eta_new
            obj_new = float(r_new @ weight @ r_new)
            if obj_new <= obj:
                accepted = True
                break
            lam *= _LM_DAMPING_UP
        if not accepted:
            diag.stalled = True
            break
        x, eta, jac, r, obj = x_new, eta_new, jac_new, r_new, obj_new
        diag.objective_history.append(obj)
        if obj < best_obj:
            best_x, best_obj = x.copy(), obj
        lam = max(lam * _LM_DAMPING_DOWN, 1e-15)
        if float(np.linalg.norm(step)) <= _LM_STEP_TOL * (
                1.0 + float(np.linalg.norm(x))):
            diag.converged = True
            break
    out = PositionParams.from_vector(best_x)
    return out, diag


def wrapped_rotation_error(alpha_est: float, alpha_true: float) -> float:
    """Rotation error on the half-circle (alpha is defined modulo pi)."""
    d = np.mod(alpha_est - alpha_true, np.pi)
    return float(min(d, np.pi - d))
