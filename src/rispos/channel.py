"""System configuration, pilots, schedule, the setup and the forward model.

Draws the RIS phase-shift schedule, random binary pilots, path gains and
angular dictionaries. ``Setup`` is the per-power measurement setup every
stage runs against: geometry, system, pilots and schedule, with the
dictionaries, the known RIS-BS angles, a_B and the path count derived
from them once. The setup is the only holder of the RIS-BS leg; a
``ChannelParams`` carries the estimated per-path vector alone.
``model_field`` is the only implementation of the noiseless received
field: synthesis, the SAGE E-step, the likelihood and the Fisher
information all build on it or on its per-path factors
(``ris_slot_scalars``, ``pilot_projection``, ``subcarrier_ramp``).
``synthesize_rx`` adds circularly-symmetric Gaussian noise to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import DimensionMismatch, ScheduleInfeasible
from .geometry import ScenarioGeometry, steer_ula, steer_upa
from .params import ChannelParams


def dbm_to_watt(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


@dataclass
class SystemConfig:
    """Waveform, slot-schedule, power, and dictionary-grid settings."""

    fc: float = 4.9e9                  # carrier, Hz
    bandwidth: float = 20e6            # Hz
    n_subcarriers: int = 20
    t_total: int = 37                  # pilot slots T
    t1: int = 16                       # slots of the first phase block
    n_blocks: int = 7                  # extra time blocks (Upsilon)
    v_slots: int = 3                   # slots per extra block
    p_tx: float = dbm_to_watt(20.0)    # transmit power, watts
    noise_density: float = dbm_to_watt(-174.0)  # W/Hz
    g_ms: int = 128                    # AOD grid size
    g_ris_az: int = 10
    g_ris_el: int = 10
    path_loss_exponent: float = 2.2
    shadow_std_db: float = 4.0

    @property
    def wavelength(self) -> float:
        return geometry.SPEED_OF_LIGHT / self.fc

    @property
    def noise_power(self) -> float:
        """Per-subcarrier noise power: density times subcarrier bandwidth."""
        return self.noise_density * self.bandwidth / self.n_subcarriers

    def validate(self, n_paths: int) -> None:
        """Check the slot-schedule feasibility conditions for Q+1 paths."""
        if self.t_total != self.t1 + self.n_blocks * self.v_slots:
            raise ScheduleInfeasible("T must equal T1 + Upsilon*V")
        if self.t1 < 8 * n_paths - 2:
            raise ScheduleInfeasible(
                f"T1={self.t1} too small for {n_paths}-sparse AOD recovery "
                f"(needs >= {8 * n_paths - 2})")
        if self.v_slots < n_paths:
            raise ScheduleInfeasible(
                "each time block needs at least Q+1 slots for block de-mixing")
        if self.n_blocks + 1 < 6:
            raise ScheduleInfeasible(
                "need at least 6 phase blocks for 1-sparse AOA recovery")


@dataclass
class PhaseSchedule:
    """Block-constant RIS reflection coefficients over the T slots."""

    block_phases: np.ndarray   # (n_blocks+1, N_r) unit-modulus
    slot_block: np.ndarray     # (T,) block index of each slot

    @property
    def n_slots(self) -> int:
        return self.slot_block.size

    @property
    def n_blocks(self) -> int:
        return self.block_phases.shape[0]

    @property
    def slot_phases(self) -> np.ndarray:
        """Per-slot phase vectors, shape (T, N_r)."""
        return self.block_phases[self.slot_block]

    def block_slots(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.slot_block == i)


def make_phase_schedule(cfg: SystemConfig, n_ris: int,
                        seed: int | np.random.Generator = 0) -> PhaseSchedule:
    """Draw the block-constant phase profile with uniform random phases."""
    if cfg.t_total != cfg.t1 + cfg.n_blocks * cfg.v_slots:
        raise ScheduleInfeasible("T must equal T1 + Upsilon*V")
    if cfg.t1 < 1 or cfg.v_slots < 1:
        raise ScheduleInfeasible("empty phase block")
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(cfg.n_blocks + 1, n_ris))
    slot_block = np.concatenate([
        np.zeros(cfg.t1, dtype=int),
        1 + np.repeat(np.arange(cfg.n_blocks), cfg.v_slots),
    ])
    return PhaseSchedule(np.exp(1j * phases), slot_block)


def make_pilots(cfg: SystemConfig, n_ms: int,
                seed: int | np.random.Generator = 0) -> np.ndarray:
    """Random +-1 pilots, one column per slot, shared by all subcarriers.

    Entries are scaled so that each slot's pilot vector carries the full
    transmit power: ||x_t||^2 = P_tx.
    """
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(n_ms, cfg.t_total)) * 2 - 1
    return signs * np.sqrt(cfg.p_tx / n_ms)


def path_loss_db(cfg: SystemConfig, geom: ScenarioGeometry,
                 shadowing_db: float = 0.0) -> np.ndarray:
    """Large-scale loss of each cascaded path (dB), NLoS = VLoS + 3 dB.

    Uses the UMa-style reflection-link model with the carrier expressed
    in GHz and 3-D link distances in meters.
    """
    d_mr = np.linalg.norm(geom.ms - geom.ris)
    d_rb = np.linalg.norm(geom.ris - geom.bs)
    pl0 = (28.0 + 40.0 * np.log10(cfg.fc / 1e9)
           + 10.0 * cfg.path_loss_exponent * np.log10(d_mr * d_rb)
           + shadowing_db)
    pl = np.full(geom.n_scatterers + 1, pl0)
    pl[1:] += 3.0
    return pl


def draw_gains(cfg: SystemConfig, geom: ScenarioGeometry,
               seed: int | np.random.Generator = 0) -> np.ndarray:
    """Draw complex path gains: CN(0, 10^(-PL/10)) with shared shadowing."""
    rng = np.random.default_rng(seed)
    xi = rng.normal(0.0, cfg.shadow_std_db)
    var = 10.0 ** (-path_loss_db(cfg, geom, xi) / 10.0)
    raw = rng.standard_normal(var.size) + 1j * rng.standard_normal(var.size)
    return np.sqrt(var / 2.0) * raw


def nominal_gain_amplitudes(cfg: SystemConfig, geom: ScenarioGeometry) -> np.ndarray:
    """Deterministic per-path amplitude sqrt(10^(-PL/10)) at zero shadowing."""
    return 10.0 ** (-path_loss_db(cfg, geom) / 20.0)


@dataclass
class Dictionary:
    """Steering vectors over a uniform grid of trigonometric values.

    Column g (1-based) corresponds to grid value -1 + 2(g-1)/G, mapped to
    a spatial frequency through the array's spacing/wavelength.
    """

    matrix: np.ndarray      # (n_ant, G)
    grid: np.ndarray        # (G,) values in [-1, 1)


@dataclass
class RisDictionary:
    """Kronecker dictionary of the RIS UPA: elevation (x) azimuth."""

    matrix: np.ndarray      # (N_r, G_e*G_a)
    azimuth: Dictionary
    elevation: Dictionary

    @property
    def size(self) -> int:
        return self.matrix.shape[1]


def grid_values(g: int) -> np.ndarray:
    return -1.0 + 2.0 * np.arange(g) / g


def build_dictionaries(cfg: SystemConfig,
                       geom: ScenarioGeometry) -> tuple[Dictionary, RisDictionary]:
    """AOD dictionary at the MS and the Kronecker RIS dictionary."""
    lam = geom.wavelength
    gm = grid_values(cfg.g_ms)
    a_m = Dictionary(steer_ula(gm * geom.d_ms / lam, geom.n_ms), gm)
    ga = grid_values(cfg.g_ris_az)
    ge = grid_values(cfg.g_ris_el)
    az = Dictionary(steer_ula(ga * geom.d_ris_az / lam, geom.n_ris_az), ga)
    el = Dictionary(steer_ula(ge * geom.d_ris_el / lam, geom.n_ris_el), ge)
    return a_m, RisDictionary(np.kron(el.matrix, az.matrix), az, el)


def ris_index_split(k: int, g_az: int) -> tuple[int, int]:
    """1-based Kronecker column index -> (elevation, azimuth) indices."""
    k_el = int(np.ceil(k / g_az))
    k_az = k - (k_el - 1) * g_az
    return k_el, k_az


# per-path response factors used throughout estimation

def bs_steering(geom: ScenarioGeometry, theta_r0: float) -> np.ndarray:
    return steer_ula(geometry.aod_spatial_freq(theta_r0, geom.d_bs,
                                               geom.wavelength), geom.n_bs)


def ms_steering(geom: ScenarioGeometry, theta_t) -> np.ndarray:
    """MS steering vectors, shape (N_m,) or (N_m, n) for array input."""
    return steer_ula(geometry.aod_spatial_freq(theta_t, geom.d_ms,
                                               geom.wavelength), geom.n_ms)


def ris_diff_steering(geom: ScenarioGeometry, phi_in, psi_in,
                      phi_out0: float, psi_out0: float) -> np.ndarray:
    """RIS steering at the differential spatial frequencies.

    Equals a_R(in) Hadamard a_R(out)^*; shape (N_r,) or (N_r, n).
    """
    dw_az, dw_el = geometry.ris_delta_freqs(geom, phi_in, psi_in,
                                            phi_out0, psi_out0)
    return steer_upa(dw_az, dw_el, geom.n_ris_az, geom.n_ris_el)


def subcarrier_ramp(tau, bandwidth: float, n_subcarriers: int) -> np.ndarray:
    """exp(-j*2*pi*tau*(n-1)*B/N) over subcarriers; shape (N,) or (N, len(tau))."""
    n = np.arange(n_subcarriers)
    return np.exp(-2j * np.pi * np.multiply.outer(n, tau)
                  * bandwidth / n_subcarriers)


@dataclass
class Setup:
    """The measurement setup shared by every stage at one transmit power.

    Built from the geometry, the system, the pilots (N_m, T) and the
    phase schedule; the dictionaries, the known RIS-BS angles
    (theta_r0, phi_out0, psi_out0), the BS steering vector a_B and the
    path count Q+1 follow from them once.
    """

    geom: ScenarioGeometry
    cfg: SystemConfig
    pilots: np.ndarray
    sched: PhaseSchedule
    a_m_dict: Dictionary = field(init=False)
    ris_dict: RisDictionary = field(init=False)
    known_angles: tuple = field(init=False)
    a_b: np.ndarray = field(init=False)
    n_paths: int = field(init=False)

    def __post_init__(self):
        if self.pilots.shape != (self.geom.n_ms, self.cfg.t_total):
            raise DimensionMismatch("pilot matrix must be (N_m, T)")
        if self.sched.n_slots != self.cfg.t_total:
            raise DimensionMismatch("schedule slot count must equal T")
        self.a_m_dict, self.ris_dict = build_dictionaries(self.cfg, self.geom)
        self.known_angles = geometry.ris_bs_angles(self.geom.ris, self.geom.bs)
        self.a_b = bs_steering(self.geom, self.known_angles[0])
        self.n_paths = self.geom.n_scatterers + 1


def ris_slot_scalars(geom: ScenarioGeometry, slot_phases: np.ndarray,
                     phi_in, psi_in, phi_out0: float,
                     psi_out0: float) -> np.ndarray:
    """sigma_t = g_t^T a_R(dw) per slot; (T,) or (T, n) for array angles."""
    return slot_phases @ ris_diff_steering(geom, phi_in, psi_in,
                                           phi_out0, psi_out0)


def pilot_projection(geom: ScenarioGeometry, pilots: np.ndarray,
                     theta_t) -> np.ndarray:
    """p_t = a_M(theta)^H x_t per slot; (T,) or (T, n) for array angles."""
    return pilots.T @ ms_steering(geom, theta_t).conj()


def path_factors(params: ChannelParams, setup: Setup):
    """Per-path factors of the field: sigma (T, Q+1), p (T, Q+1), ramp (N, Q+1).

    Path q contributes delta_q * sigma_t p_t * ramp[n] to slot t and
    subcarrier n of the field.
    """
    geom, cfg = setup.geom, setup.cfg
    sigma = ris_slot_scalars(geom, setup.sched.slot_phases, params.phi_in,
                             params.psi_in, *setup.known_angles[1:])
    proj = pilot_projection(geom, setup.pilots, params.theta_t)
    ramp = subcarrier_ramp(params.tau, cfg.bandwidth, cfg.n_subcarriers)
    return sigma, proj, ramp


def model_field(params: ChannelParams, setup: Setup) -> np.ndarray:
    """Noiseless per-slot/per-subcarrier scalar field (T, N) of all paths.

    The noiseless received tensor is a_B (x) this field: every path
    arrives at the BS along the known RIS-BS direction, so the field and
    all its parameter derivatives share that rank-1 structure.
    """
    sigma, proj, ramp = path_factors(params, setup)
    return np.einsum("q,tq,nq->tn", params.gains, sigma * proj, ramp)


def beamform(a_b: np.ndarray, y: np.ndarray) -> np.ndarray:
    """a_B^H applied along the antenna axis of y (N_b, ...); shape y.shape[1:]."""
    return (a_b.conj() @ y.reshape(a_b.size, -1)).reshape(y.shape[1:])


def synthesize_rx(setup: Setup, params: ChannelParams,
                  noise_seed: int | np.random.Generator | None = 0,
                  noiseless: bool = False) -> np.ndarray:
    """Simulate the received uplink pilot tensor y = a_B (x) field + z,
    shape (N_b, T, N).

    Noise entries are CN(0, sigma^2) with the per-subcarrier noise power
    of the setup's system; passing the same seed reproduces the tensor
    exactly.
    """
    y = setup.a_b[:, None, None] * model_field(params, setup)[None, :, :]
    if not noiseless:
        rng = np.random.default_rng(noise_seed)
        scale = np.sqrt(setup.cfg.noise_power / 2.0)
        y = y + scale * (rng.standard_normal(y.shape)
                         + 1j * rng.standard_normal(y.shape))
    return y
