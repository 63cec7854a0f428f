"""Parameter containers shared by the channel and positioning stages.

Two vectors drive the pipeline: the per-path channel parameters
(delay, complex gain, departure angle at the MS, elevation/azimuth
arrival angles at the RIS) and the position-level parameters (gains,
MS coordinates, rotation angle, scatterer coordinates). Both hold only
what is estimated: the RIS-BS leg is known and lives in the per-power
``channel.Setup`` (``setup.known_angles``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ChannelParams:
    """The estimated channel vector: six real parameters per path.

    The flattened real vector stacks ``[tau, delta_re, delta_im,
    theta_t, phi_in, psi_in]`` path by path, path 0 being the VLoS
    (scatterer-free) path, so it has length 6(Q+1).
    """

    tau: np.ndarray              # (Q+1,) seconds
    gains: np.ndarray            # (Q+1,) complex
    theta_t: np.ndarray          # (Q+1,) radians, AOD at the MS
    phi_in: np.ndarray           # (Q+1,) radians, elevation AOA at the RIS
    psi_in: np.ndarray           # (Q+1,) radians, azimuth AOA at the RIS

    def __post_init__(self):
        self.tau = np.atleast_1d(np.asarray(self.tau, dtype=float))
        self.gains = np.atleast_1d(np.asarray(self.gains, dtype=complex))
        self.theta_t = np.atleast_1d(np.asarray(self.theta_t, dtype=float))
        self.phi_in = np.atleast_1d(np.asarray(self.phi_in, dtype=float))
        self.psi_in = np.atleast_1d(np.asarray(self.psi_in, dtype=float))

    @property
    def n_paths(self) -> int:
        return self.tau.size

    def to_vector(self) -> np.ndarray:
        """Flatten to the length-6(Q+1) real parameter vector."""
        cols = np.column_stack([
            self.tau, self.gains.real, self.gains.imag,
            self.theta_t, self.phi_in, self.psi_in,
        ])
        return cols.ravel()

    def copy(self) -> "ChannelParams":
        return ChannelParams(
            self.tau.copy(), self.gains.copy(), self.theta_t.copy(),
            self.phi_in.copy(), self.psi_in.copy(),
        )


@dataclass
class PositionParams:
    """Position-level parameters: gains, MS pose, scatterer coordinates.

    The flattened real vector is ``[delta_re/delta_im per path, m (3),
    alpha, s^1 (3), ..., s^Q (3)]`` of length 5Q+6.
    """

    gains: np.ndarray                 # (Q+1,) complex
    ms: np.ndarray                    # (3,) meters
    alpha: float                      # radians in [0, pi)
    scatterers: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))

    def __post_init__(self):
        self.gains = np.atleast_1d(np.asarray(self.gains, dtype=complex))
        self.ms = np.asarray(self.ms, dtype=float).reshape(3)
        self.scatterers = np.asarray(self.scatterers, dtype=float).reshape(-1, 3)
        self.alpha = float(self.alpha)

    @property
    def n_scatterers(self) -> int:
        return self.scatterers.shape[0]

    def to_vector(self) -> np.ndarray:
        """Flatten to the length-(5Q+6) real parameter vector."""
        gain_block = np.column_stack([self.gains.real, self.gains.imag]).ravel()
        return np.concatenate([gain_block, self.ms, [self.alpha],
                               self.scatterers.ravel()])

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "PositionParams":
        vec = np.asarray(vec, dtype=float)
        if (vec.size - 6) % 5 != 0:
            raise ValueError("position parameter vector length must be 5Q+6")
        q = (vec.size - 6) // 5
        gain_block = vec[:2 * (q + 1)].reshape(-1, 2)
        rest = vec[2 * (q + 1):]
        return cls(
            gains=gain_block[:, 0] + 1j * gain_block[:, 1],
            ms=rest[:3],
            alpha=float(rest[3]),
            scatterers=rest[4:].reshape(q, 3),
        )

    def copy(self) -> "PositionParams":
        return PositionParams(self.gains.copy(), self.ms.copy(), self.alpha,
                              self.scatterers.copy())
