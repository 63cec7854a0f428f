"""System configuration, pilots, schedule, the setup and the forward model.

Draws the RIS phase-shift schedule, random binary pilots, path gains and
the dictionaries. ``Setup`` is the measurement setup every stage runs
against: geometry, system, pilots and schedule, with the
known RIS-BS leg (the unit vector of bs - ris), the dictionaries and
the path count derived from them once. The setup is the only holder of
the RIS-BS leg; a ``ChannelParams`` carries the estimated per-path
(tau, gain, u, c, s) alone.

Every path arrives at the BS along the known leg, so the received
tensor is y = a_B (x) field + z; the package never forms a_B, whose
only trace in the estimators is |a_B|^2 = N_b. The other arrays each
have one steering function, taking the coordinates a ``ChannelParams``
holds: ``ms_sine_steering`` takes a sine, ``ris_factors`` the elevation
cosine c and azimuth product s. The RIS response runs at the
differential frequencies c - c_out and s - s_out of the known leg,
which folds the RIS-BS steering into it. The dictionaries are built
with these functions on grids of the same absolute coordinates: u, c
and s each take G values of step 2/G in [-1, 1), the RIS grids placed
to contain the leg's own c_out and s_out.
``derivative_factors`` is the one forward model: it forms the per-path
factors (``slot_factors`` of the RIS response, the pilot projection and
``subcarrier_ramp``) once, and from them the noiseless field and the
factors of its derivatives. The likelihood, the Fisher information and
the truth's fields all read it, and the coarse delay step scores the
same ``subcarrier_ramp``. ``synthesize_rx`` draws the received tensor
at given noiseless fields only through the two statistics the
estimators read, as an ``Observation``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .errors import DimensionMismatch, ScheduleInfeasible
from .geometry import ScenarioGeometry, kron_columns, steer_ula
from .params import ChannelParams


def dbm_to_watt(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


@dataclass
class SystemConfig:
    """Waveform, slot-schedule, noise, and dictionary-grid settings."""

    fc: float = 4.9e9                  # carrier, Hz
    bandwidth: float = 20e6            # Hz
    n_subcarriers: int = 20
    t_total: int = 37                  # pilot slots T
    t1: int = 16                       # slots of the first phase block
    n_blocks: int = 7                  # extra time blocks (Upsilon)
    v_slots: int = 3                   # slots per extra block
    noise_density: float = dbm_to_watt(-174.0)  # W/Hz
    g_ms: int = 128                    # AOD grid size
    g_ris_az: int = 10
    g_ris_el: int = 10
    path_loss_exponent: float = 2.2
    shadow_std_db: float = 4.0

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


def make_pilots(cfg: SystemConfig, n_ms: int, p_tx: float | list,
                seed: int | np.random.Generator = 0) -> np.ndarray:
    """Random +-1 pilots, one column per slot, shared by all subcarriers.

    Entries are scaled so that each slot's pilot vector carries the full
    transmit power ``p_tx`` (watts): ||x_t||^2 = P_tx. A scalar power
    gives (N_m, T); P powers give (P, N_m, T), the same signs at each
    power's amplitude.
    """
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(n_ms, cfg.t_total)) * 2 - 1
    return signs * np.sqrt(np.asarray(p_tx)[..., None, None] / n_ms)


def path_loss_db(cfg: SystemConfig, geom: ScenarioGeometry,
                 shadowing_db: float | np.ndarray = 0.0) -> np.ndarray:
    """Large-scale loss of each cascaded path (dB), NLoS = VLoS + 3 dB.

    Uses the UMa-style reflection-link model with the carrier expressed
    in GHz and 3-D link distances in meters. A scalar shadowing gives
    (Q+1,); shadowings (K,) give (K, Q+1), row k at shadowing k, each
    entry summed as ((28 + 40 log f) + 10 n log d) + shadowing.
    """
    d_mr = np.linalg.norm(geom.ms - geom.ris)
    d_rb = np.linalg.norm(geom.ris - geom.bs)
    pl0 = (28.0 + 40.0 * np.log10(cfg.fc / 1e9)
           + 10.0 * cfg.path_loss_exponent * np.log10(d_mr * d_rb)
           + np.asarray(shadowing_db)[..., None])
    pl = np.repeat(pl0, geom.n_scatterers + 1, axis=-1)
    pl[..., 1:] += 3.0
    return pl


def draw_gains(cfg: SystemConfig, geom: ScenarioGeometry,
               seed: int | np.random.Generator | list | tuple = 0
               ) -> np.ndarray:
    """Draw complex path gains: CN(0, 10^(-PL/10)) with shared shadowing.

    One seed (an int, a ``SeedSequence`` or a ``Generator``) gives (Q+1,)
    gains: the shadowing first, then the real and the imaginary parts. A
    list or tuple of K seeds gives (K, Q+1), row k drawn from seed k in
    that order, bit for bit the gains of seed k alone; the path loss is
    formed once for the K rows.
    """
    lone = not isinstance(seed, (list, tuple))
    rngs = [np.random.default_rng(s) for s in ([seed] if lone else seed)]
    xi = np.array([rng.normal(0.0, cfg.shadow_std_db) for rng in rngs])
    var = 10.0 ** (-path_loss_db(cfg, geom, xi) / 10.0)
    n_paths = var.shape[-1]
    raw = np.array([rng.standard_normal(n_paths)
                    + 1j * rng.standard_normal(n_paths) for rng in rngs])
    gains = np.sqrt(var / 2.0) * raw
    return gains[0] if lone else gains


def nominal_gain_amplitudes(cfg: SystemConfig, geom: ScenarioGeometry) -> np.ndarray:
    """Deterministic per-path amplitude sqrt(10^(-PL/10)) at zero shadowing."""
    return 10.0 ** (-path_loss_db(cfg, geom) / 20.0)


@dataclass
class Dictionary:
    """Steering vectors over a uniform grid of one coordinate (a sine, or
    the RIS arrival's c or s): column g is the array's steering vector at
    ``grid[g]``.
    """

    matrix: np.ndarray      # (n_ant, G)
    grid: np.ndarray        # (G,) values in [-1, 1)


@dataclass
class RisDictionary:
    """Kronecker dictionary of the RIS UPA: elevation (x) azimuth."""

    matrix: np.ndarray      # (N_r, G_e*G_a)
    azimuth: Dictionary
    elevation: Dictionary


def grid_values(g: int) -> np.ndarray:
    return -1.0 + 2.0 * np.arange(g) / g


# per-path response factors used throughout estimation

def ms_sine_steering(geom: ScenarioGeometry, u) -> np.ndarray:
    """MS steering vectors at departure sines u = sin(theta_t); (N_m,) or
    (N_m, n)."""
    return steer_ula(geom.d_ms / geom.wavelength * u, geom.n_ms)


def subcarrier_ramp(tau, bandwidth: float, n_subcarriers: int) -> np.ndarray:
    """exp(-j*2*pi*tau*(n-1)*B/N) over subcarriers; shape (N,) or (N, len(tau))."""
    n = np.arange(n_subcarriers)
    return np.exp(-2j * np.pi * np.multiply.outer(n, tau)
                  * bandwidth / n_subcarriers)


@dataclass
class Setup:
    """The measurement setup shared by every stage.

    Built from the geometry, the system, the pilots and the phase
    schedule; the known RIS-BS leg ``leg`` (the unit vector of
    bs - ris: its x component is sin theta_r0, its z and y components the
    c and s of the outgoing leg), the dictionaries and the path count
    Q+1 follow from them once. So do the products the estimators would
    otherwise form on every trial: the (blocks, T) indicator
    ``block_sum`` whose row b sums the slots of phase block b, the
    projected AOD dictionary ``aod_proj`` over the first T1 slots, the
    block-level RIS dictionary ``ris_eff`` = block_phases @ A_R with its
    column powers, the strictly lower triangle ``tril`` of a T1 x T1
    matrix, where synthesis puts its Bartlett normals, and the delay
    step's ramps: ``bin_ramp`` (N, N), column m subcarrier_ramp(-m / B)
    at DFT bin m; ``grid_ramp`` (N, 41), the same at the 41
    ``grid_offsets`` (seconds) that span half a bin on either side;
    ``ramp_weights`` (N, 3), the weights 1, j beta n and (j beta n)^2,
    beta = 2 pi B / N, of the ramp's sum and its first two derivatives
    in the delay.

    Of these only the pilots depend on the transmit power. A lone setup
    holds pilots (N_m, T), which every record shares. A stacked setup
    holds one row of ``POWER_FIELDS`` per record, pilots (K, N_m, T),
    the same seeded signs at each row's amplitude (``make_pilots`` at K
    powers), and ``take(rows)`` is the setup of some of its records.
    ``aod_proj`` is formed at unit pilot amplitude, sign(X1)^H A_M:
    neither DCS-SOMP's pick score nor its projector changes when the
    dictionary is scaled, so one dictionary serves every row. Every
    other array is shared by the rows and by the setups ``take`` gives,
    so the setup makes them read-only; it keeps its own copies of
    ``geom`` and ``sched`` to do so, and the caller's stay writable.
    """

    # what depends on the transmit power: a stacked setup holds these
    # with a leading row axis
    POWER_FIELDS = ("pilots",)

    geom: ScenarioGeometry
    cfg: SystemConfig
    pilots: np.ndarray
    sched: PhaseSchedule
    a_m_dict: Dictionary = field(init=False)
    ris_dict: RisDictionary = field(init=False)
    leg: np.ndarray = field(init=False)
    n_paths: int = field(init=False)
    block_sum: np.ndarray = field(init=False)        # (blocks, T)
    aod_proj: np.ndarray = field(init=False)         # (T1, G_ms)
    ris_eff: np.ndarray = field(init=False)          # (blocks, G_r)
    ris_eff_power: np.ndarray = field(init=False)    # (G_r,)
    tril: tuple = field(init=False)                  # row and column indices
    bin_ramp: np.ndarray = field(init=False)         # (N, N)
    grid_ramp: np.ndarray = field(init=False)        # (N, 41)
    grid_offsets: np.ndarray = field(init=False)     # (41,) seconds
    ramp_weights: np.ndarray = field(init=False)     # (N, 3)

    def __post_init__(self):
        if self.sched.n_slots != self.cfg.t_total:
            raise DimensionMismatch("schedule slot count must equal T")
        if (self.pilots.ndim not in (2, 3)
                or self.pilots.shape[-2:] != (self.geom.n_ms,
                                              self.cfg.t_total)):
            raise DimensionMismatch("pilot matrix must be (N_m, T) or "
                                    "(K, N_m, T)")
        self.geom = geom = copy.deepcopy(self.geom)
        self.sched = sched = copy.deepcopy(self.sched)
        self.leg = geometry.unit_vector(geom.bs, geom.ris, "RIS-BS")[0]
        self.a_m_dict, self.ris_dict = build_dictionaries(self)
        self.n_paths = geom.n_scatterers + 1
        self.block_sum = (sched.slot_block
                          == np.arange(sched.n_blocks)[:, None]).astype(float)
        # every row holds the same signs
        first = self.pilots if self.pilots.ndim == 2 else self.pilots[0]
        self.aod_proj = (np.sign(first[:, :self.cfg.t1]).conj().T
                         @ self.a_m_dict.matrix)
        self.ris_eff = sched.block_phases @ self.ris_dict.matrix
        # unequal column norms (random phase profiles) must not bias a pick
        self.ris_eff_power = np.maximum(
            np.sum(np.abs(self.ris_eff) ** 2, axis=0), 1e-300)
        self.tril = np.tril_indices(self.cfg.t1, -1)
        n_sub, bw = self.cfg.n_subcarriers, self.cfg.bandwidth
        self.bin_ramp = subcarrier_ramp(-np.arange(n_sub) / bw, bw, n_sub)
        self.grid_offsets = np.linspace(-0.5, 0.5, 41) / bw
        self.grid_ramp = subcarrier_ramp(-self.grid_offsets, bw, n_sub)
        rate = 2j * np.pi * bw / n_sub * np.arange(n_sub)
        self.ramp_weights = np.stack([np.ones(n_sub), rate, rate * rate],
                                     axis=1)
        for shared in (geom.bs, geom.ris, geom.ms, geom.scatterers, self.leg,
                       sched.block_phases, sched.slot_block,
                       self.a_m_dict.matrix, self.a_m_dict.grid,
                       self.ris_dict.matrix, self.ris_dict.azimuth.matrix,
                       self.ris_dict.azimuth.grid,
                       self.ris_dict.elevation.matrix,
                       self.ris_dict.elevation.grid, self.block_sum,
                       self.aod_proj, self.ris_eff, self.ris_eff_power,
                       *self.tril, self.bin_ramp, self.grid_ramp,
                       self.grid_offsets, self.ramp_weights):
            shared.flags.writeable = False

    def take(self, rows) -> "Setup":
        """The setup of the records ``rows``, an index array: those rows
        of a stacked setup, or this setup where it is lone or ``rows`` are
        all its rows in order."""
        lone = self.pilots.ndim == 2
        if lone or np.array_equal(rows, np.arange(len(self.pilots))):
            return self
        out = copy.copy(self)
        for name in self.POWER_FIELDS:
            setattr(out, name, getattr(self, name)[rows])
        return out


def ris_factors(setup: Setup, c, s) -> tuple:
    """Elevation and azimuth factors of the RIS response, a_R = a_el (x)
    a_az, at elevation cosines c and azimuth products s; each (N,) or
    (N, n). Both run at the differential frequencies of the known leg."""
    geom, leg = setup.geom, setup.leg
    lam = geom.wavelength
    return (steer_ula(geom.d_ris_el / lam * (np.asarray(c) - leg[2]),
                      geom.n_ris_el),
            steer_ula(geom.d_ris_az / lam * (np.asarray(s) - leg[1]),
                      geom.n_ris_az))


def build_dictionaries(setup: Setup) -> tuple[Dictionary, RisDictionary]:
    """AOD dictionary at the MS and the Kronecker RIS dictionary.

    Column e * G_az + a of the RIS dictionary is a_el(c_e) (x) a_az(s_a).
    Each RIS grid is shifted within one step so that it contains the
    leg's own value, c_out for the elevation and s_out for the azimuth.
    """
    cfg, leg = setup.cfg, setup.leg
    gm = grid_values(cfg.g_ms)
    ge = grid_values(cfg.g_ris_el) + np.mod(leg[2] + 1.0, 2.0 / cfg.g_ris_el)
    ga = grid_values(cfg.g_ris_az) + np.mod(leg[1] + 1.0, 2.0 / cfg.g_ris_az)
    a_el, a_az = ris_factors(setup, ge, ga)
    # np.kron(a_el, a_az) as one broadcast product
    ris = (a_el[:, None, :, None] * a_az[None, :, None, :]).reshape(
        a_el.shape[0] * a_az.shape[0], -1)
    return (Dictionary(ms_sine_steering(setup.geom, gm), gm),
            RisDictionary(ris, Dictionary(a_az, ga), Dictionary(a_el, ge)))


def pilot_projection(geom: ScenarioGeometry, pilots: np.ndarray,
                     u) -> np.ndarray:
    """p_t = a_M(u)^H x_t per slot; (T,) or (T, n) for array sines, and
    (K, T, n) for a (K, n) stack of them or for pilots stacked (K, N_m, T),
    one matrix product per record either way."""
    steer = ms_sine_steering(geom, u)
    return np.swapaxes(pilots, -1, -2) @ (
        np.moveaxis(steer, 0, 1) if steer.ndim == 3 else steer).conj()


def slot_factors(setup: Setup, cols: np.ndarray) -> np.ndarray:
    """g_t^T r per slot of each RIS-side column r of ``cols`` (N_r, n),
    (T, n), or of each row of a stack (K, N_r, n): the block phases
    contracted once and read off per slot."""
    sched = setup.sched
    return (sched.block_phases @ cols)[..., sched.slot_block, :]


def derivative_factors(params: ChannelParams, setup: Setup):
    """The noiseless field mu (T, N) of all paths and the slot and
    subcarrier factors of its derivatives, A (T, 6(Q+1)) and B
    (N, 6(Q+1)), derivative k the (T, N) outer product of A[:, k] and
    B[:, k]; returns (A, B, mu). This is the package's one forward
    model: the likelihood, the Fisher information and the truth's Gram
    and fields all take their field or its derivatives from this pass.
    The field is linear in the gains, and the delta_re factors A[:, 6q+1]
    and B[:, 6q+1] do not depend on them, so mu is
    (A[:, 1::6] * gains) @ B[:, 1::6]^T, its last product.

    Path q contributes delta_q sigma_t p_t ramp[n] to slot t and
    subcarrier n of the field: sigma_t = g_t^T a_R(c, s) per slot
    (``slot_factors`` of the RIS response), p_t = a_M(u)^H x_t (as
    ``pilot_projection`` forms it) and the delay's ``subcarrier_ramp``.
    The noiseless received tensor is a_B (x) mu: every path arrives at
    the BS along the known RIS-BS direction, so the field and all its
    derivatives share that rank-1 structure, and |a_B|^2 = N_b is all
    the estimators need of a_B.

    Parameter order per path: [tau, delta_re, delta_im, u, c, s]. Each
    derivative keeps the path's product form. The u, c and s derivatives
    weight the MS steering vector and the RIS response by the MS, RIS
    elevation and RIS azimuth index ramps.

    Gains stacked (K, Q+1), parameters stacked (K, Q+1) in every field,
    or a setup with pilots stacked (K, N_m, T) give the K passes
    (K, T, 6(Q+1)), (K, N, 6(Q+1)) and (K, T, N), each product on its
    own row's operands, as on one: row k at the gains of row k and the
    pilots of the setup's row k. B keeps no row axis where the delays
    have none.
    """
    geom, cfg = setup.geom, setup.cfg
    lam = geom.wavelength
    gains = params.gains[..., None, :]
    n_paths = params.tau.shape[-1]
    a_m = np.moveaxis(ms_sine_steering(geom, params.u).conj(), 0, -2)
    a_r = np.moveaxis(kron_columns(*ris_factors(setup, params.c, params.s)),
                      0, -2)
    ramp = np.moveaxis(subcarrier_ramp(params.tau, cfg.bandwidth,
                                       cfg.n_subcarriers), 0, -2)
    k_r = np.arange(geom.n_ris)[:, None]
    pilots_t = np.swapaxes(setup.pilots, -1, -2)
    # the matrices of each product stacked along a new axis, so that each
    # makes the gemm call of its own: a product's columns keep their bits
    # only among products of as many columns
    sigma, d_c, d_s = slot_factors(setup, np.stack([
        a_r, k_r // geom.n_ris_az * a_r, k_r % geom.n_ris_az * a_r]))
    prods = pilots_t[..., None, :, :] @ np.stack(
        [a_m, np.arange(geom.n_ms)[:, None] * a_m], axis=-3)
    proj = prods[..., 0, :, :]
    dproj = 2j * np.pi * geom.d_ms / lam * prods[..., 1, :, :]
    d_c = -2j * np.pi * geom.d_ris_el / lam * d_c
    d_s = -2j * np.pi * geom.d_ris_az / lam * d_s
    u = sigma * proj
    shape = np.broadcast_shapes(u.shape, gains.shape)
    slots = np.empty(shape + (6,), complex)
    slots[..., 0] = -2j * np.pi * cfg.bandwidth / cfg.n_subcarriers * gains * u
    slots[..., 1] = u
    slots[..., 2] = 1j * u
    slots[..., 3] = gains * sigma * dproj
    slots[..., 4] = gains * d_c * proj
    slots[..., 5] = gains * d_s * proj
    subs = np.empty(ramp.shape + (6,), complex)
    subs[..., 0] = np.arange(cfg.n_subcarriers)[:, None] * ramp
    subs[..., 1:] = ramp[..., None]
    return (slots.reshape(shape[:-1] + (6 * n_paths,)),
            subs.reshape(ramp.shape[:-1] + (6 * n_paths,)),
            (u * gains) @ np.swapaxes(ramp, -1, -2))


@dataclass
class Observation:
    """What the estimators read of the received tensor y (N_b, T, N): the
    beamformed record pa = a_B^H y and the first-T1-slot covariance
    cov1[t, t'] = sum_{b, n} conj(y[b, t, n]) y[b, t', n]. A stack of K
    observations holds them as (K, T, N) and (K, T1, T1); ``row`` gives
    one of them."""

    pa: np.ndarray       # (T, N)
    cov1: np.ndarray     # (T1, T1) Hermitian

    def row(self, k: int) -> "Observation":
        """Observation k of a stack."""
        return Observation(self.pa[k], self.cov1[k])

    def take(self, rows) -> "Observation":
        """The stack of the observations ``rows``, an index array."""
        return Observation(self.pa[rows], self.cov1[rows])


def synthesize_rx(setup: Setup, field: np.ndarray,
                  noise_seed: list | None = None,
                  noiseless: bool = False) -> Observation:
    """Draw the observations of y = a_B (x) field + z, z iid CN(0,
    sigma^2), exactly in distribution and without forming y, at a stack
    of K noiseless fields (K, T, N), such as
    ``derivative_factors(params, setup)[2]`` at gains stacked (K, Q+1).

    With e = a_B / |a_B|, |a_B| = sqrt(N_b), ypar = e^H y = |a_B| field
    + z_par, z_par iid CN(0, sigma^2), and pa = |a_B| ypar. The noise
    orthogonal to e enters only cov1, as conj(W): W = sigma^2 L L^H is
    complex Wishart with m = (N_b - 1) N degrees of freedom, L lower
    triangular by Bartlett's decomposition (|L_ii|^2 ~ Gamma(m - i),
    CN(0, 1) below the diagonal), or its m columns when m < T1. The draws
    come in a fixed order, z_par, the gammas, the off-diagonal normals,
    so one seed gives one observation.

    Returns the K observations as one stacked ``Observation``, pa
    (K, T, N) and cov1 (K, T1, T1). ``noise_seed`` is a sequence of K
    seeds, unread when ``noiseless``; any other count raises
    ``ValueError``. Each observation draws its noise from its own
    ``Generator`` in the order above, into its row of stacked buffers, so
    it does not depend on the rows drawn beside it; the noise sum, added
    into the real and imaginary parts of ypar in place, and the Bartlett
    placement then run once on the stack. The setup gives the noise
    power, the array sizes and, for the placement, ``tril``; the field
    row k carries whatever pilots it was formed at.
    """
    cfg, t1 = setup.cfg, setup.cfg.t1
    norm_b = np.sqrt(setup.geom.n_bs)
    ypar = norm_b * field
    n_rows = len(ypar)
    m = (setup.geom.n_bs - 1) * cfg.n_subcarriers
    if noiseless:
        low = np.zeros((n_rows, t1, 0), dtype=complex)
    else:
        if len(noise_seed) != n_rows:
            raise ValueError(f"{len(noise_seed)} noise seeds for "
                             f"{n_rows} observations")
        diag = np.arange(t1)
        shape = m - diag
        full = m >= t1
        noise = np.empty((n_rows, 2) + ypar.shape[1:])
        gammas = np.empty((n_rows, t1 if full else 0))
        normals = np.empty((n_rows,) + ((t1 * (t1 - 1) // 2, 2) if full
                                        else (t1, m, 2)))
        for k, seed in enumerate(noise_seed):
            rng = np.random.default_rng(seed)
            rng.standard_normal(out=noise[k])
            if full:
                rng.standard_gamma(shape, out=gammas[k])
            rng.standard_normal(out=normals[k])
        # the bits of adding s (z_re + 1j z_im): its cross terms are zeros
        noise *= np.sqrt(cfg.noise_power / 2.0)
        ypar.real += noise[:, 0]
        ypar.imag += noise[:, 1]
        normals = normals.view(complex)[..., 0] * np.sqrt(0.5)
        if full:
            low = np.zeros((n_rows, t1, t1), dtype=complex)
            low[:, diag, diag] = np.sqrt(gammas)
            low[:, setup.tril[0], setup.tril[1]] = normals
        else:
            low = normals
    y1 = ypar[:, :t1]
    cov1 = (y1.conj() @ y1.swapaxes(1, 2)
            + cfg.noise_power * (low.conj() @ low.swapaxes(1, 2)))
    ypar *= norm_b
    return Observation(ypar, cov1)
