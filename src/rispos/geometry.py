"""Array steering, node geometry, and the channel/position parameter map.

Conventions: the BS hosts a ULA parallel to the x axis, the RIS a UPA
parallel to the y-o-z plane, the MS a ULA on a plane parallel to x-o-y
rotated by ``alpha`` about z. All angles are kept in radians internally;
degrees only appear at I/O boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry, InfeasibleGeometry
from .params import ChannelParams, PositionParams

SPEED_OF_LIGHT = 3e8  # m/s

# Tolerance for inverse-trig arguments that drift past +-1 in floating point.
TRIG_CLAMP_TOL = 1e-9

Vec3 = np.ndarray  # shape (3,), meters


def clamped_arcsin(x: float, tol: float = TRIG_CLAMP_TOL) -> float:
    """arcsin with a small out-of-domain guard.

    Arguments within ``tol`` of [-1, 1] are clamped; anything further out
    indicates a genuine geometry bug and raises.
    """
    if abs(x) > 1.0 + tol:
        raise DegenerateGeometry(f"arcsin argument {x} outside [-1, 1]")
    return float(np.arcsin(np.clip(x, -1.0, 1.0)))


def clamped_arccos(x: float, tol: float = TRIG_CLAMP_TOL) -> float:
    """arccos with the same guard as :func:`clamped_arcsin`."""
    if abs(x) > 1.0 + tol:
        raise DegenerateGeometry(f"arccos argument {x} outside [-1, 1]")
    return float(np.arccos(np.clip(x, -1.0, 1.0)))


def steer_ula(u: float | np.ndarray, n_ant: int) -> np.ndarray:
    """ULA steering vector for spatial frequency ``u`` (cycles/element).

    Element k equals ``exp(-j*2*pi*k*u)``. When ``u`` is an array of
    candidate frequencies the result has shape ``(n_ant, len(u))``.
    """
    k = np.arange(n_ant)
    u = np.asarray(u, dtype=float)
    phase = -2j * np.pi * np.multiply.outer(k, u)
    return np.exp(phase)


def steer_upa(u_az: float | np.ndarray, u_el: float | np.ndarray,
              n_a: int, n_e: int) -> np.ndarray:
    """UPA steering vector: elevation factor Kronecker azimuth factor.

    Supports broadcast arrays of candidate frequencies, returning shape
    ``(n_a*n_e, n_cand)``.
    """
    fa = steer_ula(u_az, n_a)
    fe = steer_ula(u_el, n_e)
    if fa.ndim == 1:
        return np.kron(fe, fa)
    # batched Kronecker over the trailing candidate axis
    return (fe[:, None, :] * fa[None, :, :]).reshape(n_a * n_e, -1)


@dataclass
class ScenarioGeometry:
    """Node placement, MS rotation, and array constants (ground truth)."""

    bs: Vec3
    ris: Vec3
    ms: Vec3
    alpha: float                       # radians in [0, pi)
    scatterers: np.ndarray             # (Q, 3)
    n_bs: int = 40
    n_ms: int = 16
    n_ris_az: int = 10
    n_ris_el: int = 10
    wavelength: float = SPEED_OF_LIGHT / 4.9e9
    d_bs: float | None = None          # default lambda/2
    d_ms: float | None = None          # default lambda/2
    d_ris_az: float | None = None      # default lambda/3
    d_ris_el: float | None = None      # default lambda/3

    def __post_init__(self):
        self.bs = np.asarray(self.bs, dtype=float).reshape(3)
        self.ris = np.asarray(self.ris, dtype=float).reshape(3)
        self.ms = np.asarray(self.ms, dtype=float).reshape(3)
        self.scatterers = np.asarray(self.scatterers, dtype=float).reshape(-1, 3)
        self.alpha = float(self.alpha)
        if not (0.0 <= self.alpha < np.pi):
            raise ValueError("alpha must lie in [0, pi)")
        for name, div in (("d_bs", 2), ("d_ms", 2), ("d_ris_az", 3),
                          ("d_ris_el", 3)):
            if getattr(self, name) is None:
                setattr(self, name, self.wavelength / div)
            if getattr(self, name) > self.wavelength / 2 + 1e-12:
                raise ValueError(f"{name} must not exceed lambda/2")

    @property
    def n_ris(self) -> int:
        return self.n_ris_az * self.n_ris_el

    @property
    def n_scatterers(self) -> int:
        return self.scatterers.shape[0]


@dataclass
class PathAngles:
    """Physical angles of one MS-(scatterer-)RIS-BS path."""

    theta_t: float     # AOD at the MS
    phi_in: float      # elevation AOA at the RIS
    psi_in: float      # azimuth AOA at the RIS
    theta_r0: float    # AOA at the BS (RIS-BS leg, shared)
    phi_out0: float    # elevation AOD at the RIS (shared)
    psi_out0: float    # azimuth AOD at the RIS (shared)


def _checked_norm(v: np.ndarray, what: str) -> float:
    n = float(np.linalg.norm(v))
    if n <= 0.0:
        raise DegenerateGeometry(f"zero distance: {what}")
    return n


def ris_bs_angles(ris: Vec3, bs: Vec3) -> tuple[float, float, float]:
    """(theta_r0, phi_out0, psi_out0) of the fixed RIS-BS leg."""
    diff = np.asarray(bs, float) - np.asarray(ris, float)
    dist = _checked_norm(diff, "RIS-BS")
    rho = float(np.hypot(diff[0], diff[1]))
    if rho <= 0.0:
        raise DegenerateGeometry("BS directly above RIS: azimuth undefined")
    theta_r0 = clamped_arcsin(diff[0] / dist)
    psi_out0 = clamped_arcsin(diff[1] / rho)
    phi_out0 = clamped_arccos(diff[2] / dist)
    return theta_r0, phi_out0, psi_out0


def _incoming_angles(dep_target: Vec3, ris_source: Vec3, ris: Vec3,
                     alpha: float, ms: Vec3) -> tuple[float, float, float]:
    """Angles of one MS-(scatterer-)RIS leg pair.

    The departure angle is measured at the MS toward ``dep_target`` (the
    RIS for the VLoS path, the scatterer otherwise); the arrival angles
    are measured at the RIS looking back at ``ris_source`` (the MS for
    the VLoS path, the scatterer otherwise).
    """
    dep = np.asarray(dep_target, float) - np.asarray(ms, float)
    dep_dist = _checked_norm(dep, "MS leg")
    a = np.array([np.cos(alpha), -np.sin(alpha), 0.0])
    theta_t = clamped_arcsin(float(a @ dep) / dep_dist)

    arr = np.asarray(ris, float) - np.asarray(ris_source, float)
    arr_dist = _checked_norm(arr, "RIS leg")
    rho = float(np.hypot(arr[0], arr[1]))
    if rho <= 0.0:
        raise DegenerateGeometry("source directly below RIS: azimuth undefined")
    psi_in = np.pi - clamped_arcsin(arr[1] / rho)
    phi_in = clamped_arccos(arr[2] / arr_dist)
    return theta_t, phi_in, psi_in


def angles_from_geometry(geom: ScenarioGeometry) -> list[PathAngles]:
    """All path angles for q = 0..Q (q = 0 is the VLoS path)."""
    theta_r0, phi_out0, psi_out0 = ris_bs_angles(geom.ris, geom.bs)
    out = []
    theta_t, phi_in, psi_in = _incoming_angles(geom.ris, geom.ms, geom.ris,
                                               geom.alpha, geom.ms)
    out.append(PathAngles(theta_t, phi_in, psi_in, theta_r0, phi_out0, psi_out0))
    for s in geom.scatterers:
        theta_t, phi_in, psi_in = _incoming_angles(s, s, geom.ris,
                                                   geom.alpha, geom.ms)
        out.append(PathAngles(theta_t, phi_in, psi_in, theta_r0, phi_out0,
                              psi_out0))
    return out


def toas_from_geometry(geom: ScenarioGeometry) -> np.ndarray:
    """Times of arrival tau_q (seconds), q = 0..Q."""
    d_rb = _checked_norm(geom.ris - geom.bs, "RIS-BS")
    taus = [(d_rb + _checked_norm(geom.ms - geom.ris, "MS-RIS")) / SPEED_OF_LIGHT]
    for s in geom.scatterers:
        d_sr = _checked_norm(s - geom.ris, "scatterer-RIS")
        d_ms = _checked_norm(geom.ms - s, "MS-scatterer")
        taus.append((d_rb + d_sr + d_ms) / SPEED_OF_LIGHT)
    return np.asarray(taus)


def forward_map_G(pos: PositionParams, ris: Vec3, bs: Vec3) -> ChannelParams:
    """Map position-level parameters to channel parameters.

    Gains pass through unchanged; delays and angles follow from the
    node geometry. The inverse (in the noiseless case) is provided by
    the closed forms in :mod:`rispos.positioning`.
    """
    theta_r0, phi_out0, psi_out0 = ris_bs_angles(ris, bs)
    geom_like = ScenarioGeometry(
        bs=bs, ris=ris, ms=pos.ms, alpha=pos.alpha, scatterers=pos.scatterers)
    angles = angles_from_geometry(geom_like)
    taus = toas_from_geometry(geom_like)
    return ChannelParams(
        tau=taus,
        gains=pos.gains.copy(),
        theta_t=np.array([a.theta_t for a in angles]),
        phi_in=np.array([a.phi_in for a in angles]),
        psi_in=np.array([a.psi_in for a in angles]),
        theta_r0=theta_r0, phi_out0=phi_out0, psi_out0=psi_out0,
    )


def true_channel_params(geom: ScenarioGeometry, gains: np.ndarray) -> ChannelParams:
    """Ground-truth channel parameters for a scenario and drawn gains."""
    return forward_map_G(
        PositionParams(gains=gains, ms=geom.ms, alpha=geom.alpha,
                       scatterers=geom.scatterers),
        geom.ris, geom.bs)


# spatial-frequency helpers (one-to-one for spacing <= lambda/2)

def aod_spatial_freq(theta: float | np.ndarray, spacing: float,
                     wavelength: float) -> float | np.ndarray:
    """(d/lambda) sin(theta) for a ULA."""
    return spacing / wavelength * np.sin(theta)


def ris_delta_freqs(geom: ScenarioGeometry, phi_in, psi_in,
                    phi_out0: float, psi_out0: float):
    """Differential RIS spatial frequencies (azimuth, elevation).

    These drive the effective RIS response g_t^T a_R once the known
    outgoing leg is folded into the arrival steering vector.
    """
    dw_az = geom.d_ris_az / geom.wavelength * (
        np.sin(psi_in) * np.sin(phi_in) - np.sin(psi_out0) * np.sin(phi_out0))
    dw_el = geom.d_ris_el / geom.wavelength * (
        np.cos(phi_in) - np.cos(phi_out0))
    return dw_az, dw_el


def ms_ris_range(tau0: float, ris: Vec3, bs: Vec3) -> float:
    """MS-RIS distance implied by the VLoS delay; negative is infeasible."""
    d_rb = _checked_norm(np.asarray(ris, float) - np.asarray(bs, float), "RIS-BS")
    rng = tau0 * SPEED_OF_LIGHT - d_rb
    if rng < 0.0:
        raise InfeasibleGeometry("VLoS delay shorter than the RIS-BS leg")
    return rng
