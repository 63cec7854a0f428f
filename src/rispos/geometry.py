"""Array steering, node geometry, and the position-to-channel parameter map.

Conventions: the BS hosts a ULA parallel to the x axis, the RIS a UPA
parallel to the y-o-z plane, the MS a ULA on a plane parallel to x-o-y
rotated by ``alpha`` about z, along a = (cos alpha, -sin alpha, 0).
The forward map gives each path's channel parameters in the arrays'
spatial frequencies: the departure sine u = a . w_dep, w_dep the unit
vector from the MS toward the path's first hop, and the arrival's c and
s, the z and y components of the unit vector w from the path's last
source to the RIS. The known RIS-BS leg is the unit vector of bs - ris,
derived once per setup (``channel.Setup.leg``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometry
from .params import ChannelParams, PositionParams

SPEED_OF_LIGHT = 3e8  # m/s

Vec3 = np.ndarray  # shape (3,), meters


def steer_ula(u: float | np.ndarray, n_ant: int) -> np.ndarray:
    """ULA steering vector for spatial frequency ``u`` (cycles/element).

    Element k equals ``exp(-j*2*pi*k*u)``. When ``u`` is an array of
    candidate frequencies the result has shape ``(n_ant, len(u))``.
    """
    k = np.arange(n_ant)
    u = np.asarray(u, dtype=float)
    phase = -2j * np.pi * np.multiply.outer(k, u)
    return np.exp(phase)


def kron_columns(fe: np.ndarray, fa: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product fe (x) fa of UPA factors, (n_e*n_a,)
    or (n_e*n_a, n) for (n_e, n) and (n_a, n) factors, either of which
    may have one column shared by all n; factors (n_e, K, n) and
    (n_a, K, n) give (n_e*n_a, K, n)."""
    if fa.ndim == 1:
        return np.kron(fe, fa)
    prod = fe[:, None] * fa[None]
    return prod.reshape((fe.shape[0] * fa.shape[0],) + prod.shape[2:])


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


def unit_vector(a: Vec3, b: Vec3, what: str) -> tuple[np.ndarray, float]:
    """(a - b) / |a - b| and |a - b|; a zero distance raises
    ``DegenerateGeometry`` naming the leg ``what``. Points stacked (K, 3)
    give (K, 3) and (K,), and any zero distance raises."""
    diff = np.asarray(a, float) - np.asarray(b, float)
    # the norm as the dot product np.linalg.norm forms, on each row
    dist = np.sqrt(dot_rows(diff, diff))
    if np.any(dist <= 0.0):
        raise DegenerateGeometry(f"zero distance: {what}")
    return diff / dist[..., None], dist


def dot_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y over the last axis of (..., n) stacks: one dot product per
    row, the one a lone ``x @ y`` makes."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def ms_axis(alpha) -> np.ndarray:
    """Direction a of the MS array axis at rotation ``alpha``, (3,), or
    (K, 3) for K rotations."""
    return np.stack([np.cos(alpha), -np.sin(alpha), np.zeros_like(alpha)],
                    axis=-1)


def forward_map_G(pos: PositionParams, ris: Vec3, bs: Vec3) -> ChannelParams:
    """Map position-level parameters to channel parameters.

    Gains pass through unchanged; delays and the spatial frequencies
    (u, c, s) follow from the node geometry. The inverse (in the
    noiseless case) is provided by the closed forms in
    :mod:`rispos.positioning`. Stacked parameters (``PositionParams``
    of K poses) give channel parameters stacked (K, Q+1).
    """
    a = ms_axis(pos.alpha)
    d_rb = unit_vector(ris, bs, "RIS-BS")[1]
    n_paths = pos.n_scatterers + 1
    tau, u, c, s = (np.empty(np.shape(pos.alpha) + (n_paths,))
                    for _ in range(4))
    for q in range(n_paths):
        # path 0 departs toward the RIS and arrives from the MS; path q > 0
        # does both through scatterer q
        hop = ris if q == 0 else pos.scatterers[..., q - 1, :]
        w_dep, h_dep = unit_vector(hop, pos.ms,
                                   "MS-RIS" if q == 0 else "MS-scatterer")
        w_arr, h_arr = unit_vector(ris, pos.ms if q == 0 else hop,
                                   "MS-RIS" if q == 0 else "scatterer-RIS")
        tau[..., q] = ((d_rb + h_arr + (h_dep if q > 0 else 0.0))
                       / SPEED_OF_LIGHT)
        u[..., q], c[..., q], s[..., q] = (dot_rows(a, w_dep), w_arr[..., 2],
                                           w_arr[..., 1])
    return ChannelParams(tau, pos.gains.copy(), u, c, s)


def true_channel_params(geom: ScenarioGeometry, gains: np.ndarray) -> ChannelParams:
    """Ground-truth channel parameters for a scenario and drawn gains."""
    return forward_map_G(
        PositionParams(gains=gains, ms=geom.ms, alpha=geom.alpha,
                       scatterers=geom.scatterers),
        geom.ris, geom.bs)

