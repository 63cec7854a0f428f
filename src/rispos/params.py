"""Parameter containers shared by the channel and positioning stages.

Two vectors drive the pipeline: the per-path channel parameters and the
position-level parameters (gains, MS coordinates, rotation angle,
scatterer coordinates). Both hold only what is estimated: the RIS-BS
leg is known and lives in the per-power ``channel.Setup``
(``setup.leg``, the unit vector from the RIS toward the BS).

Channel parameters are kept in the arrays' spatial frequencies, the
coordinates every estimator searches and every steering vector takes:
the delay, the complex gain, the departure sine u = sin theta_t at the
MS, and the RIS arrival's elevation cosine c = cos phi_in and azimuth
product s = sin psi_in sin phi_in. c and s are the z and y components
of the unit vector from the path's last source to the RIS, so every
arrival direction, the vertical one included, is a regular point of the
disk c^2 + s^2 <= 1. Angles appear only at the edges: the closed-form
pose and the reported errors and bounds, which take the azimuth from
``arrival_azimuth``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def arrival_azimuth(c, s):
    """psi_in = pi - atan2(s, sqrt(max(1 - c^2 - s^2, 0))) in [pi/2, 3pi/2].

    Equals pi - asin(s / sin phi_in), the branch of an arrival from the
    far side of the RIS, and is still defined at the pole c = +-1 (pi).
    """
    c, s = np.asarray(c, dtype=float), np.asarray(s, dtype=float)
    return np.pi - np.arctan2(s, np.sqrt(np.maximum(1.0 - c * c - s * s, 0.0)))


@dataclass
class ChannelParams:
    """The estimated channel vector: six real parameters per path.

    The flattened real vector stacks ``[tau, delta_re, delta_im, u, c,
    s]`` path by path, path 0 being the VLoS (scatterer-free) path, so it
    has length 6(Q+1).
    """

    tau: np.ndarray              # (Q+1,) seconds
    gains: np.ndarray            # (Q+1,) complex
    u: np.ndarray                # (Q+1,) sin theta_t, departure sine at the MS
    c: np.ndarray                # (Q+1,) cos phi_in, RIS elevation cosine
    s: np.ndarray                # (Q+1,) sin psi_in sin phi_in, RIS azimuth product

    def __post_init__(self):
        self.tau = np.atleast_1d(np.asarray(self.tau, dtype=float))
        self.gains = np.atleast_1d(np.asarray(self.gains, dtype=complex))
        self.u = np.atleast_1d(np.asarray(self.u, dtype=float))
        self.c = np.atleast_1d(np.asarray(self.c, dtype=float))
        self.s = np.atleast_1d(np.asarray(self.s, dtype=float))

    @property
    def n_paths(self) -> int:
        return self.tau.shape[-1]

    def to_vector(self) -> np.ndarray:
        """Flatten to the length-6(Q+1) real parameter vector; parameters
        stacked (K, Q+1) give the (K, 6(Q+1)) vectors."""
        rows = np.empty(self.tau.shape + (6,))
        rows[..., 0], rows[..., 3], rows[..., 4], rows[..., 5] = (
            self.tau, self.u, self.c, self.s)
        rows[..., 1], rows[..., 2] = self.gains.real, self.gains.imag
        return rows.reshape(self.tau.shape[:-1] + (-1,))

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "ChannelParams":
        """Inverse of ``to_vector``, of one vector or a stack of them."""
        vec = np.asarray(vec, dtype=float)
        rows = vec.reshape(vec.shape[:-1] + (-1, 6))
        return cls(rows[..., 0], rows[..., 1] + 1j * rows[..., 2],
                   rows[..., 3], rows[..., 4], rows[..., 5])

    def take(self, index) -> "ChannelParams":
        """The parameters at ``index`` of a stack's leading axis: row k,
        the stack of the rows of an index array, or, for None, these
        parameters as a stack of one."""
        return ChannelParams(self.tau[index], self.gains[index],
                             self.u[index], self.c[index], self.s[index])

    def copy(self) -> "ChannelParams":
        return ChannelParams(self.tau.copy(), self.gains.copy(), self.u.copy(),
                             self.c.copy(), self.s.copy())


@dataclass
class PositionParams:
    """Position-level parameters: gains, MS pose, scatterer coordinates.

    The flattened real vector is ``[delta_re/delta_im per path, m (3),
    alpha, s^1 (3), ..., s^Q (3)]`` of length 5Q+6. The parameters of K
    poses may be stacked, gains (K, Q+1), ms (K, 3), alpha (K,) and
    scatterers (K, Q, 3), as ``from_vector`` gives them for a (K, 5Q+6)
    stack of vectors.
    """

    gains: np.ndarray                 # (Q+1,) complex
    ms: np.ndarray                    # (3,) meters
    alpha: float                      # radians in [0, pi)
    scatterers: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))

    def __post_init__(self):
        self.gains = np.atleast_1d(np.asarray(self.gains, dtype=complex))
        self.ms = np.asarray(self.ms, dtype=float)
        if self.ms.ndim == 2:
            self.alpha = np.asarray(self.alpha, dtype=float)
        else:
            self.ms, self.alpha = self.ms.reshape(3), float(self.alpha)
        self.scatterers = np.asarray(self.scatterers, dtype=float).reshape(
            self.ms.shape[:-1] + (-1, 3))

    @property
    def n_scatterers(self) -> int:
        return self.scatterers.shape[-2]

    def to_vector(self) -> np.ndarray:
        """Flatten to the length-(5Q+6) real parameter vector."""
        gain_block = np.column_stack([self.gains.real, self.gains.imag]).ravel()
        return np.concatenate([gain_block, self.ms, [self.alpha],
                               self.scatterers.ravel()])

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "PositionParams":
        """Inverse of ``to_vector``; a stack of vectors (K, 5Q+6) gives the
        stacked parameters of K poses."""
        vec = np.asarray(vec, dtype=float)
        if (vec.shape[-1] - 6) % 5 != 0:
            raise ValueError("position parameter vector length must be 5Q+6")
        q = (vec.shape[-1] - 6) // 5
        lead = vec.shape[:-1]
        gain_block = vec[..., :2 * (q + 1)].reshape(lead + (-1, 2))
        rest = vec[..., 2 * (q + 1):]
        return cls(
            gains=gain_block[..., 0] + 1j * gain_block[..., 1],
            ms=rest[..., :3],
            alpha=rest[..., 3],
            scatterers=rest[..., 4:].reshape(lead + (q, 3)),
        )
