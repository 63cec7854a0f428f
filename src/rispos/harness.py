"""Seeded Monte Carlo experiment engine and CSV emission.

Runs the synthesize -> coarse -> SAGE -> closed-form -> LM pipeline over
a transmit-power sweep, aggregates per-parameter RMSE curves next to the
corresponding bounds, and writes plot-ready CSV files (one per figure
panel analogue). What the trials of a sweep share is one
``SweepSetup`` (``sweep_setup``): a stacked ``channel.Setup`` that
every stage takes, one row per power, plus what the bounds read of the
truth: the true parameters at unit gains ``true_unit``, and of the one
forward-model pass at them their FIM Gram ``true_gram`` and the gain
columns ``true_slots`` (one row per power each) and ``true_ramp`` of
its factors, which give a trial's field at its gains, and the parameter
Jacobian at the true pose. Only the pilots, the Gram and the slot
columns differ between its rows.

A sweep runs its trials in batches (``run_batch``): a batch is a block
of consecutive trial indices at every power, max(1, ``BATCH`` // powers)
of them, so it holds at most ``BATCH`` trials (or one per power beyond
``BATCH`` powers). The block follows from the config alone, so the
worker count cannot change it; a pool task is one block. The trials of
a batch differ only in their drawn gains and noise and, across powers,
in the rows of the sweep's setup, which ``take`` gives one per trial.
So a batch forms the seeds, the truth, its vectors, bounds and fields
and the observations of all its trials at once, as stacks, with no
forward-model pass of its own, then runs every stage once on the stack,
the three iterative fits in lockstep, and scores each stage's output
there, each trial keeping its own row or error (``draw_trials``). Then it calls
``run_trial`` on each trial, which copies the trial's outputs and scores
into its record: the unit of work, called once per trial through this
module, and alone a batch of one. The cap on a batch's rows bounds a
sweep's peak memory, since a stack's temporaries grow with its rows;
what every power shares, such as the projected AOD dictionary, a batch
holds once, not once per row.

This is the report edge of the channel coordinates: trial records keep
the channel vectors in (tau, gain, u, c, s), as the pipeline does, and
the reported channel errors and CRLBs are in angles (``channel_angles``,
``angle_crlb``), so the CSV columns and units are those of the paper.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bounds as bnd
from . import channel as ch
from . import coarse_est as ce
from . import positioning as pos_mod
from . import sage as sg
from ._damping import fit_rows
from .errors import IoError, RisposError
from .geometry import SPEED_OF_LIGHT, ScenarioGeometry, true_channel_params
from .params import ChannelParams, PositionParams, arrival_azimuth

_TAG_PILOTS = 1
_TAG_SCHEDULE = 2
_TAG_TRIAL = 3

# the most trials a batch holds: a block of max(1, BATCH // powers)
# consecutive trial indices at every power, the unit of ``draw_trials``
# and of a pool task
BATCH = 64

STAGES = ("coarse", "aod_mle", "sage", "lm")

# report class -> (column in each path's 6-entry row of ``channel_angles``,
# or None for the pose classes; report scale: ns for delays, degrees for
# angles, meters for the position)
_CLASSES = {
    "delta_re": (1, 1.0), "delta_im": (2, 1.0), "tau": (0, 1e9),
    "theta_t": (3, 180.0 / np.pi), "phi_in": (4, 180.0 / np.pi),
    "psi_in": (5, 180.0 / np.pi),
    "position": (None, 1.0), "orientation": (None, 180.0 / np.pi),
}
REPORT_CLASSES = tuple(_CLASSES)
CHANNEL_CLASSES = tuple(c for c, (col, _) in _CLASSES.items()
                        if col is not None)


def _is_number(value, kind) -> bool:
    """``value`` is an instance of the ``numbers`` ABC ``kind``, not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _is_finite_real(value) -> bool:
    return _is_number(value, numbers.Real) and bool(np.isfinite(value))


def _is_point(value) -> bool:
    """``value`` is a sequence of three finite real numbers."""
    return (isinstance(value, (list, tuple, np.ndarray)) and len(value) == 3
            and all(map(_is_finite_real, value)))


# config fields that must be integers >= 1, and those that must be finite reals
_COUNT_FIELDS = ("n_trials", "workers", "n_bs", "n_ms", "n_ris_az", "n_ris_el",
                 "n_subcarriers", "t_total", "t1", "n_blocks", "v_slots",
                 "g_ms", "g_ris_az", "g_ris_el")
_REAL_FIELDS = ("alpha_deg", "bs_spacing_wl", "ms_spacing_wl",
                "ris_spacing_wl", "fc_hz", "bandwidth_hz",
                "noise_density_dbm_hz", "path_loss_exponent", "shadow_std_db")


@dataclass
class ExperimentConfig:
    """Scenario, system, and sweep settings with defaults of the
    reference urban scenario."""

    # geometry
    bs: list = field(default_factory=lambda: [0.0, 0.0, 28.0])
    ris: list = field(default_factory=lambda: [-6.0, 8.0, 20.0])
    ms: list = field(default_factory=lambda: [22.0, 35.0, 1.5])
    alpha_deg: float = 75.0
    scatterers: list = field(default_factory=lambda: [[6.0, 5.0, 3.0]])
    n_bs: int = 40
    n_ms: int = 16
    n_ris_az: int = 10
    n_ris_el: int = 10
    bs_spacing_wl: float = 0.5
    ms_spacing_wl: float = 0.5
    ris_spacing_wl: float = 1.0 / 3.0
    # waveform / schedule
    fc_hz: float = 4.9e9
    bandwidth_hz: float = 20e6
    n_subcarriers: int = 20
    t_total: int = 37
    t1: int = 16
    n_blocks: int = 7
    v_slots: int = 3
    noise_density_dbm_hz: float = -174.0
    g_ms: int = 128
    g_ris_az: int = 10
    g_ris_el: int = 10
    path_loss_exponent: float = 2.2
    shadow_std_db: float = 4.0
    # experiment
    powers_dbm: list = field(default_factory=lambda: [-10.0, 0.0, 10.0, 20.0])
    n_trials: int = 200
    master_seed: int = 20260809
    stage: str = "lm"               # coarse | aod_mle | sage | lm
    noiseless: bool = False
    out_dir: str = "results"
    workers: int = 1

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"stage must be one of {STAGES}")
        if not isinstance(self.noiseless, (bool, np.bool_)):
            raise ValueError(
                f"noiseless must be true or false, not {self.noiseless!r}")
        for name in ("bs", "ris", "ms"):
            if not _is_point(getattr(self, name)):
                raise ValueError(f"{name} must be three finite real numbers, "
                                 f"not {getattr(self, name)!r}")
        if (not isinstance(self.scatterers, (list, tuple, np.ndarray))
                or not all(_is_point(p) for p in self.scatterers)):
            raise ValueError("scatterers must be a list of points of three "
                             f"finite real numbers, not {self.scatterers!r}")
        for name, least in ([(n, 1) for n in _COUNT_FIELDS]
                            + [("master_seed", 0)]):
            value = getattr(self, name)
            if not _is_number(value, numbers.Integral) or value < least:
                raise ValueError(
                    f"{name} must be an integer >= {least}, not {value!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if not _is_finite_real(value):
                raise ValueError(
                    f"{name} must be a finite real number, not {value!r}")
        if not 0 <= self.alpha_deg < 180:
            raise ValueError(
                f"alpha_deg must lie in [0, 180), not {self.alpha_deg!r}")
        for name in ("fc_hz", "bandwidth_hz"):
            if not getattr(self, name) > 0:
                raise ValueError(
                    f"{name} must be > 0, not {getattr(self, name)!r}")
        for name in ("bs_spacing_wl", "ms_spacing_wl", "ris_spacing_wl"):
            if not 0 < getattr(self, name) <= 0.5:
                raise ValueError(f"{name} must lie in (0, 0.5] wavelengths, "
                                 f"not {getattr(self, name)!r}")
        if not self.shadow_std_db >= 0:
            raise ValueError(
                f"shadow_std_db must be >= 0, not {self.shadow_std_db!r}")
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ValueError("out_dir must be a non-empty path string, "
                             f"not {self.out_dir!r}")
        if (not isinstance(self.powers_dbm, list) or not self.powers_dbm
                or not all(map(_is_finite_real, self.powers_dbm))):
            raise ValueError("powers_dbm must be a non-empty list of finite "
                             f"real numbers, not {self.powers_dbm!r}")

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        import yaml     # only a config file needs it

        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = yaml.safe_load(fh)
            except yaml.YAMLError as exc:
                raise ValueError(f"{path}: not valid YAML: {exc}") from exc
        if raw is None:                   # an empty file keeps the defaults
            raw = {}
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: top level must be a mapping of "
                             f"config keys, not {type(raw).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(map(str, unknown))}")
        return cls(**raw)

    def geometry(self) -> ScenarioGeometry:
        lam = SPEED_OF_LIGHT / self.fc_hz
        return ScenarioGeometry(
            bs=self.bs, ris=self.ris, ms=self.ms,
            alpha=np.deg2rad(self.alpha_deg), scatterers=self.scatterers,
            n_bs=self.n_bs, n_ms=self.n_ms, n_ris_az=self.n_ris_az,
            n_ris_el=self.n_ris_el, wavelength=lam,
            d_bs=self.bs_spacing_wl * lam, d_ms=self.ms_spacing_wl * lam,
            d_ris_az=self.ris_spacing_wl * lam,
            d_ris_el=self.ris_spacing_wl * lam)

    def system(self) -> ch.SystemConfig:
        return ch.SystemConfig(
            fc=self.fc_hz, bandwidth=self.bandwidth_hz,
            n_subcarriers=self.n_subcarriers, t_total=self.t_total,
            t1=self.t1, n_blocks=self.n_blocks, v_slots=self.v_slots,
            noise_density=ch.dbm_to_watt(self.noise_density_dbm_hz),
            g_ms=self.g_ms, g_ris_az=self.g_ris_az, g_ris_el=self.g_ris_el,
            path_loss_exponent=self.path_loss_exponent,
            shadow_std_db=self.shadow_std_db)


def associate_paths(u_est: np.ndarray, u_true: np.ndarray) -> np.ndarray:
    """Match estimated to true paths by minimal total |u| distance, u the
    departure sine (an increasing function of the departure angle, so
    angles give the same match).

    The estimator's path order is arbitrary; all error scoring uses this
    assignment. Returns ``perm`` such that estimate ``perm[i]`` scores
    against true path ``i``. For a convex cost of the difference of two
    points on a line, pairing both lists in sorted order is an optimal
    assignment (the cost matrix of sorted lists is Monge). Sines stacked
    (K, Q+1), against a truth stacked alike or shared (Q+1,), give each
    row's association, (K, Q+1).
    """
    rank = np.argsort(np.argsort(u_true, axis=-1, kind="stable"), axis=-1)
    return np.take_along_axis(np.argsort(u_est, axis=-1, kind="stable"),
                              np.broadcast_to(rank, np.shape(u_est)), axis=-1)


def channel_angles(params: ChannelParams) -> np.ndarray:
    """Rows [tau, delta_re, delta_im, theta_t, phi_in, psi_in] per path,
    (Q+1, 6), or (K, Q+1, 6) for parameters stacked (K, Q+1), the truth's
    shared delays and frequencies included: the angles of the report."""
    return np.stack(np.broadcast_arrays(
        params.tau, params.gains.real, params.gains.imag, np.arcsin(params.u),
        np.arccos(params.c), arrival_azimuth(params.c, params.s)), axis=-1)


def angle_crlb(cov: np.ndarray, params: ChannelParams) -> np.ndarray:
    """CRLB variances of the ``channel_angles`` entries, (6(Q+1),), from
    the covariance bound ``cov`` of (tau, gain, u, c, s): the diagonal of
    D C D^T, with D the per-path Jacobian of the angles:
    d theta/du = 1/sqrt(1 - u^2), d phi/dc = -1/sqrt(1 - c^2),
    d psi/dc = -s c / (r (1 - c^2)) and d psi/ds = -1/r,
    r = sqrt(1 - c^2 - s^2). A stack of bounds (K, 6(Q+1), 6(Q+1)) at
    parameters that differ only in their gains gives (K, 6(Q+1)), from
    one contraction over the stack, row k the bits of bound k alone."""
    u, c, s = params.u, params.c, params.s
    n = params.n_paths
    r = np.sqrt(1.0 - c * c - s * s)
    jac = np.zeros((n, 6, 6))
    jac[:, [0, 1, 2], [0, 1, 2]] = 1.0
    jac[:, 3, 3] = 1.0 / np.sqrt(1.0 - u * u)
    jac[:, 4, 4] = -1.0 / np.sqrt(1.0 - c * c)
    jac[:, 5, 4] = -s * c / (r * (1.0 - c * c))
    jac[:, 5, 5] = -1.0 / r
    idx = np.arange(n)
    # one contraction over the stack's diagonal blocks (Q+1, K, 6, 6):
    # each entry sums its j, k products in the order a lone bound's
    # einsum does, so every row keeps that bound's bits
    blocks = cov.reshape((-1, n, 6, n, 6))[:, idx, :, idx, :]
    return np.einsum("qij,qajk,qik->aqi", jac, blocks, jac).reshape(
        cov.shape[:-1])


def channel_sq_errors(est: ChannelParams, true: ChannelParams,
                      true_angles: np.ndarray) -> tuple[dict, np.ndarray]:
    """Per-class squared errors (per path) in angles after association,
    given the truth's ``channel_angles``, and the association; estimates
    stacked (K, Q+1) give (K, Q+1) errors per class."""
    perm = associate_paths(est.u, true.u)
    diff = (np.take_along_axis(channel_angles(est), perm[..., None], axis=-2)
            - true_angles)
    return ({cls: diff[..., _CLASSES[cls][0]] ** 2 for cls in CHANNEL_CLASSES},
            perm)


def position_sq_errors(est: PositionParams, true_geom: ScenarioGeometry) -> dict:
    """Squared position and rotation errors of K poses stacked, one float
    per pose."""
    err = pos_mod.wrapped_rotation_error(est.alpha, true_geom.alpha)
    return {
        "position": np.sum((est.ms - true_geom.ms) ** 2, axis=-1).tolist(),
        # pow(), as ``**`` squares a float: an array's ``**`` squares by
        # err * err, which can round the other way
        "orientation": np.float_power(err, 2).tolist(),
    }


@dataclass
class TrialRecord:
    """Everything one Monte Carlo trial produced."""

    power_dbm: float
    trial_index: int
    seed_entropy: tuple
    eta_true: np.ndarray = None                      # (tau, gain, u, c, s) per path
    stages: dict = field(default_factory=dict)       # stage -> parameter vector
    sq_errors: dict = field(default_factory=dict)    # stage -> class -> errors
    crlb: np.ndarray = None                          # angle-unit, per path
    peb: float = np.nan
    oeb: float = np.nan
    support_ok: bool = False
    flags: dict = field(default_factory=dict)
    error: str | None = None


@dataclass
class SweepSetup(ch.Setup):
    """What every trial of a sweep shares: the channel setup, one row per
    power of the sweep, and the truth's products that do not depend on
    the gains.

    The trials differ only in their drawn path gains and their power. So
    the setup holds the true channel parameters ``true_unit`` at unit
    gains, whose delays and spatial frequencies every trial shares, and
    what one pass of the forward model (``channel.derivative_factors``)
    at them gives: the complex Gram ``true_gram`` = (A0^H A0) o (B0^H B0)
    of its derivative factors, and the gain columns of both factors,
    ``true_slots`` = A0[..., 1::6] (T, Q+1) and ``true_ramp`` =
    B0[..., 1::6] (N, Q+1), whose product ``fields`` forms a trial's
    field at its gains. It holds the parameter Jacobian ``t_true`` at the
    true pose too; ``truth`` swaps a trial's gains into the parameters
    and the Gram. ``true_unit``, ``true_ramp`` and ``t_true`` follow from
    the geometry alone; ``true_gram`` and ``true_slots`` depend on the
    pilots, so they are ``POWER_FIELDS``, formed for every row in the one
    stacked pass, and ``take`` gives each record its own power's rows.
    """

    POWER_FIELDS = ch.Setup.POWER_FIELDS + ("true_gram", "true_slots")

    true_unit: ChannelParams = field(init=False)
    true_gram: np.ndarray = field(init=False)
    true_slots: np.ndarray = field(init=False)
    true_ramp: np.ndarray = field(init=False)
    t_true: np.ndarray = field(init=False)

    def __post_init__(self):
        geom = self.geom
        self.true_unit = true_channel_params(
            geom, np.ones(geom.n_scatterers + 1, complex))
        self.t_true = bnd.transformation_matrix(
            PositionParams(gains=np.zeros(geom.n_scatterers + 1, complex),
                           ms=geom.ms, alpha=geom.alpha,
                           scatterers=geom.scatterers),
            geom.ris, geom.bs)
        super().__post_init__()
        a0, b0, _ = ch.derivative_factors(self.true_unit, self)
        self.true_gram = bnd.gram_from_factors(a0, b0)
        self.true_slots = np.ascontiguousarray(a0[..., 1::6])
        self.true_ramp = np.ascontiguousarray(b0[..., 1::6])
        # every trial's true parameters and fields share these arrays
        for shared in (self.true_unit.tau, self.true_unit.gains,
                       self.true_unit.u, self.true_unit.c, self.true_unit.s,
                       self.t_true, self.true_ramp):
            shared.flags.writeable = False

    def truth(self, gains: np.ndarray):
        """The true channel parameters with the path gains of K trials,
        ``gains`` (K, Q+1), and the bounds at them, from
        ``bounds.fim_at_gains``: the parameters hold that stack as their
        gains, the one truth of the K trials, and the report's fields are
        stacked. A stacked setup reads each row at its own ``true_gram``.
        """
        unit = self.true_unit
        j_eta = bnd.fim_at_gains(self.true_gram, gains, self)
        return (ChannelParams(unit.tau, gains, unit.u, unit.c, unit.s),
                bnd.position_bounds(j_eta, self.t_true))

    def fields(self, gains: np.ndarray) -> np.ndarray:
        """The noiseless fields (K, T, N) of the truth at the gains
        ``gains`` (K, Q+1), row k at this setup's row k: the last product
        of ``channel.derivative_factors`` at them, so their bits, from the
        gain columns of the pass at unit gains."""
        return (self.true_slots * gains[:, None, :]) @ self.true_ramp.T


def sweep_setup(exp: ExperimentConfig) -> SweepSetup:
    """The validated setup of the sweep ``exp``, row p at the power
    ``exp.powers_dbm[p]``: the pilots ``channel.make_pilots`` draws, the
    same seeded signs at each power's amplitude.
    """
    geom, cfg = exp.geometry(), exp.system()
    cfg.validate(geom.n_scatterers + 1)
    sched = ch.make_phase_schedule(
        cfg, geom.n_ris,
        np.random.SeedSequence((exp.master_seed, _TAG_SCHEDULE)))
    pilots = ch.make_pilots(
        cfg, geom.n_ms, [ch.dbm_to_watt(p) for p in exp.powers_dbm],
        np.random.SeedSequence((exp.master_seed, _TAG_PILOTS)))
    return SweepSetup(geom, cfg, pilots, sched)


@dataclass
class TrialDraw:
    """What a trial's batch draws, estimates and scores for it, as its
    record holds them: the truth's parameter vector ``eta_true`` at its
    drawn gains, the angle CRLBs ``crlb`` and the PEB and OEB there, rows
    and floats of the batch's stacks; of each stage it ran, in stage
    order, its parameter vector ``stages``, flags ``flags`` and squared
    errors ``sq_errors`` (class -> errors); ``support_ok``, whether the
    coarse departure sines lie within 1.5 grid cells of the true ones
    they are associated with; and the error of the stage that failed on
    the trial, or None."""

    eta_true: np.ndarray
    crlb: np.ndarray
    peb: float
    oeb: float
    stages: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    sq_errors: dict = field(default_factory=dict)
    support_ok: bool = False
    error: Exception | None = None


def _trial_entropy(exp: ExperimentConfig, power_idx: int,
                   trial_idx: int) -> tuple:
    return (exp.master_seed, _TAG_TRIAL, power_idx, trial_idx)


def _entropy_words(value: int) -> list:
    """The uint32 words ``SeedSequence`` makes of an integer >= 0:
    little-endian 32-bit words, [0] for zero."""
    value, words = int(value), []
    while True:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
        if not value:
            return words


def _trial_seeds(exp: ExperimentConfig, power_idx: int,
                 trial_idx: int) -> list:
    """The seeds of a trial's gain and noise streams: the two children
    that ``SeedSequence(entropy).spawn(2)`` gives of its
    ``_trial_entropy``, built without the parent, from the entropy's
    uint32 words, so that ``SeedSequence`` need not convert the tuple;
    the pools are the same."""
    words = np.array([w for value in _trial_entropy(exp, power_idx, trial_idx)
                      for w in _entropy_words(value)], dtype=np.uint32)
    return [np.random.SeedSequence(words, spawn_key=(child,))
            for child in (0, 1)]


def _keep(draws: list, live: np.ndarray, stage: str, outs: list,
          errors: list) -> np.ndarray:
    """Store in draw ``live[i]`` the vector and flags that the output
    ``outs[i]`` of the stage ``stage`` begins with, or its error
    ``errors[i]``; the draws of ``live`` that kept an output."""
    for k, out, exc in zip(live, outs, errors):
        if exc is None:
            draws[k].stages[stage], flags = out[:2]
            draws[k].flags.update(flags)
        draws[k].error = exc
    return live[[e is None for e in errors]]


def _score(draws: list, live: np.ndarray, stage: str, sq: dict) -> None:
    """Store the squared errors ``sq``, class -> one entry per draw of
    ``live``, as the draws' errors of the stage ``stage``."""
    for i, k in enumerate(live):
        draws[k].sq_errors[stage] = {cls: v[i] for cls, v in sq.items()}


def draw_trials(exp: ExperimentConfig, rows: list,
                sweep: SweepSetup) -> list[TrialDraw]:
    """The draws of the trials ``rows``, (power index, trial index) pairs,
    in order; ``sweep`` is ``sweep_setup(exp)``.

    Each trial draws its gains and its noise from its own streams,
    spawned from (master seed, power index, trial index), so a trial's
    draw does not depend on the trials drawn beside it. The trials differ
    only in these draws and in what depends on their power, which the
    batch's setup, ``sweep.take`` of their power indices, holds one row
    per trial: the pilots and the truth's Gram and gain columns.
    So the seeds, the truth, its vectors, bounds and fields and the
    observations of all of them are formed at once, as stacks: the
    fields come from the sweep's one forward-model pass
    (``SweepSetup.fields``), and ``channel.synthesize_rx`` adds every
    trial's noise to them. Then every stage of the stage setting runs
    once, on the stack of the trials that no stage failed, and is scored
    there: ``coarse_est.run_coarse``, its AOD refinement on at every
    stage but ``coarse``; SAGE, in lockstep; the closed form; and the LM
    fit, in lockstep, weighted by SAGE's FIM or, where SAGE did not
    converge, by ``bounds.fim_channel`` at its estimate. The stacked
    products, solves and ``eigh`` make the same BLAS and LAPACK call per
    trial as on a batch of one, so no number depends on the batch.
    """
    setup = sweep.take([p for p, _ in rows])
    geom = setup.geom
    seeds = [_trial_seeds(exp, p, t) for p, t in rows]
    gains = ch.draw_gains(setup.cfg, geom, [gain for gain, _ in seeds])
    truth, rep = setup.truth(gains)
    crlb = angle_crlb(rep.cov_channel, truth)
    obs = ch.synthesize_rx(setup, setup.fields(gains),
                           [noise for _, noise in seeds],
                           noiseless=exp.noiseless)
    draws = [TrialDraw(*row) for row in zip(
        truth.to_vector(), crlb, rep.peb.tolist(), rep.oeb.tolist())]
    try:
        coarse = ce.run_coarse(obs, setup, refine_aod=exp.stage != "coarse")
    except (RisposError, np.linalg.LinAlgError) as exc:
        for draw in draws:                  # raised for the whole batch
            draw.error = exc.with_traceback(None)
        return draws
    true_angles = channel_angles(truth)
    live = _keep(draws, np.arange(len(draws)), "coarse", [
        (vec, {name: v[k] for name, v in coarse.flags.items()})
        for k, vec in enumerate(coarse.params.to_vector())], coarse.errors)
    if not live.size:
        return draws
    est = coarse.params.take(live)
    sq, perm = channel_sq_errors(est, truth, true_angles[live])
    _score(draws, live, "coarse", sq)
    # coarse support within 1.5 grid cells of every true departure sine
    support = np.all(np.abs(np.take_along_axis(est.u, perm, axis=-1)
                            - truth.u) <= 1.5 * 2.0 / setup.cfg.g_ms, axis=-1)
    for k, ok in zip(live, support.tolist()):
        draws[k].support_ok = ok
    if exp.stage in ("sage", "lm"):
        def sage(rows):
            ks = live[rows]
            params, infos = sg.run_sage(obs.take(ks), setup.take(ks),
                                        est.take(rows))
            return [(params.take(i).to_vector(),
                     {"sage_converged": info.converged,
                      "sage_scoring_steps": info.scoring_steps},
                     params.take(i), info.fim)
                    for i, info in enumerate(infos)]
        outs, errors = fit_rows(sage, live.size)
        live = _keep(draws, live, "sage", outs, errors)
        if not live.size:
            return draws
        outs = [out for out in outs if out is not None]
        est = ChannelParams.stack([out[2] for out in outs])
        fims = [out[3] for out in outs]
        _score(draws, live, "sage",
               channel_sq_errors(est, truth, true_angles[live])[0])
    poses, flags, errors = pos_mod.position_closed_form(est, geom.ris, geom.bs)
    vecs = poses.to_vector()
    ok = np.flatnonzero([e is None for e in errors])
    live = _keep(draws, live, "closed_form", [
        (vec, {name: v[i] for name, v in flags.items()})
        for i, vec in enumerate(vecs)], errors)
    if not live.size:
        return draws
    _score(draws, live, "closed_form",
           position_sq_errors(PositionParams.from_vector(vecs[ok]), geom))
    if exp.stage == "lm":
        eta, starts, fims = est.take(ok), vecs[ok], [fims[i] for i in ok]

        def lm(rows):
            # SAGE's last FIM, when it converged, is fim_channel there
            weights = [fims[i] for i in rows]
            lone = [i for i, w in enumerate(weights) if w is None]
            if lone:
                for i, fim in zip(lone, bnd.fim_channel(
                        eta.take(rows[lone]), setup.take(live[rows[lone]]))):
                    weights[i] = fim
            poses, diags = pos_mod.refine_position_lm(
                eta.to_vector()[rows], np.stack(weights), starts[rows],
                geom.ris, geom.bs)
            return [(vec, {"lm_converged": diag.converged,
                           "lm_steps": diag.n_iter})
                    for vec, diag in zip(poses.to_vector(), diags)]
        live = _keep(draws, live, "lm", *fit_rows(lm, live.size))
        if live.size:
            _score(draws, live, "lm", position_sq_errors(
                PositionParams.from_vector(
                    np.stack([draws[k].stages["lm"] for k in live])), geom))
    return draws


def run_trial(exp: ExperimentConfig, power_dbm: float, power_idx: int,
              trial_idx: int, setup: SweepSetup | None = None,
              draw: TrialDraw | None = None) -> TrialRecord:
    """One seeded trial through the configured pipeline stages.

    Stage failures are captured in the record rather than aborting the
    sweep; every random draw derives from (master seed, power index,
    trial index) so scheduling cannot perturb results. ``power_idx`` is
    the position of ``power_dbm`` in ``exp.powers_dbm``, which a trial
    that draws its own batch checks (``ValueError``). ``setup`` is
    ``sweep_setup(exp)``, built here when not given, and ``draw`` the
    trial's ``draw_trials``, drawn here as a batch of one when not
    given. The draw holds each stage's output and scores; the trial
    copies them into its record.
    """
    rec = TrialRecord(power_dbm=power_dbm, trial_index=trial_idx,
                      seed_entropy=_trial_entropy(exp, power_idx, trial_idx))
    if draw is None:
        if not (0 <= power_idx < len(exp.powers_dbm)
                and exp.powers_dbm[power_idx] == power_dbm):
            raise ValueError(f"power_idx {power_idx} is not the position of "
                             f"{power_dbm} dBm in {exp.powers_dbm}")
        if setup is None:
            setup = sweep_setup(exp)
        (draw,) = draw_trials(exp, [(power_idx, trial_idx)], setup)
    rec.eta_true, rec.crlb, rec.peb, rec.oeb = (
        draw.eta_true, draw.crlb, draw.peb, draw.oeb)
    rec.stages, rec.flags, rec.sq_errors, rec.support_ok = (
        draw.stages, draw.flags, draw.sq_errors, draw.support_ok)
    if draw.error is not None:
        rec.error = f"{type(draw.error).__name__}: {draw.error}"
    return rec


def run_batch(exp: ExperimentConfig, trial_indices,
              setup: SweepSetup) -> list[TrialRecord]:
    """The trials ``trial_indices`` at every power of ``exp``, power by
    power, ``setup`` the sweep's ``sweep_setup``: one ``draw_trials`` for
    all of them, then ``run_trial`` on each, called through this module
    so that a wrapper of ``run_trial`` sees every trial."""
    rows = [(p, t) for p in range(len(exp.powers_dbm)) for t in trial_indices]
    draws = draw_trials(exp, rows, setup)
    return [run_trial(exp, exp.powers_dbm[p], p, t, setup, draw)
            for (p, t), draw in zip(rows, draws)]


# a pool worker's config and setup, built once by ``_start_worker``
_WORKER = {}


def _start_worker(exp: ExperimentConfig) -> None:
    """Pool initializer: build the sweep's setup once per worker, so that
    a task carries its block of trial indices alone."""
    _WORKER["exp"], _WORKER["setup"] = exp, sweep_setup(exp)


def _worker_batch(trial_indices) -> list[TrialRecord]:
    return run_batch(_WORKER["exp"], trial_indices, _WORKER["setup"])


@dataclass
class SweepReport:
    """Aggregated RMSE curves, bounds, and bookkeeping per power point."""

    powers_dbm: list
    n_trials: int
    rmse: dict                  # stage -> class -> (n_powers,) in report units
    rmse_filtered: dict         # same, over support-ok trials only
    bounds_ref: dict            # class -> (n_powers,) deterministic reference
    bounds_trial: dict          # class -> (n_powers,) aggregated true-eta bounds
    n_failed: np.ndarray
    n_support_fail: np.ndarray
    records: list               # list of lists of TrialRecord


def _row_means(rows: np.ndarray) -> np.ndarray:
    """The mean of each row of ``rows`` (n, ...), from one mean over the
    rows' axis of a contiguous copy: each row sums pairwise in C order, as
    a mean of that row alone would."""
    return np.ascontiguousarray(rows).reshape(len(rows), -1).mean(axis=1)


def _report_bounds(crlb: np.ndarray, peb: float, oeb: float) -> dict:
    """Bounds in report units from per-path angle-unit CRLB variances
    ``crlb`` (..., 6), averaged over all leading axes, and the given PEB
    and OEB."""
    rms = {"position": peb, "orientation": oeb}
    means = _row_means(np.moveaxis(crlb, -1, 0)[
        [_CLASSES[c][0] for c in CHANNEL_CLASSES]])
    rms.update(zip(CHANNEL_CLASSES, np.sqrt(means).tolist()))
    return {cls: rms[cls] * scale for cls, (_, scale) in _CLASSES.items()}


def reference_bounds(exp: ExperimentConfig,
                     setup: SweepSetup | None = None) -> list[dict]:
    """Bound values at the nominal zero-shadowing gains (RNG-free), one
    dict per power of ``exp``, from one stacked pass over the powers.

    ``setup`` is ``sweep_setup(exp)``, built here when not given. Each
    power's bounds equal those of a sweep of that power alone.
    """
    if setup is None:
        setup = sweep_setup(exp)
    n_powers = len(exp.powers_dbm)
    gains = ch.nominal_gain_amplitudes(setup.cfg, setup.geom).astype(complex)
    true, rep = setup.truth(np.tile(gains, (n_powers, 1)))
    crlb = angle_crlb(rep.cov_channel, true)
    return [_report_bounds(crlb[k].reshape(-1, 6), float(rep.peb[k]),
                           float(rep.oeb[k])) for k in range(n_powers)]


def _aggregate_trial_bounds(records: list) -> dict:
    """Root-mean bounds at the trials' true parameters (one power point)."""
    recs = [r for r in records if r.error is None]
    if not recs:
        return {c: np.nan for c in REPORT_CLASSES}
    crlb = np.stack([r.crlb for r in recs]).reshape(len(recs), -1, 6)
    return _report_bounds(crlb,
                          float(np.sqrt(np.mean([r.peb ** 2 for r in recs]))),
                          float(np.sqrt(np.mean([r.oeb ** 2 for r in recs]))))


def _stage_rmse(records: list, stage: str, classes) -> tuple[dict, dict]:
    """RMSE per class of ``classes`` in report units over one power's
    records that reached ``stage``, and the same over those of them whose
    coarse support matched; NaN where no record counts.

    The squared errors are gathered once, in record order, into one
    (classes, records, paths) array, one row per class (``_row_means``).
    """
    done = [r for r in records if r.error is None and stage in r.sq_errors]
    if not done:
        return ({c: np.nan for c in classes},) * 2
    sq = np.array([[r.sq_errors[stage][c] for r in done]
                   for c in classes])               # (classes, records, paths)
    support_ok = np.array([r.support_ok for r in done], dtype=bool)

    def rmse(rows):
        if not rows.shape[1]:
            return {c: np.nan for c in classes}
        means = np.sqrt(_row_means(rows)).tolist()
        return {c: m * _CLASSES[c][1] for c, m in zip(classes, means)}
    return rmse(sq), rmse(sq[:, support_ok])


def run_sweep(exp: ExperimentConfig) -> SweepReport:
    """Monte Carlo sweep over transmit powers with per-trial RNG streams."""
    stage_list = ["coarse"]
    if exp.stage in ("sage", "lm"):
        stage_list.append("sage")
    stage_list.append("closed_form")
    if exp.stage == "lm":
        stage_list.append("lm")

    # the parent builds the setup too: it checks the config and gives
    # the reference bounds
    setup = sweep_setup(exp)
    n_powers = len(exp.powers_dbm)
    trials = range(exp.n_trials)
    size = max(1, BATCH // n_powers)
    blocks = [trials[t:t + size] for t in range(0, exp.n_trials, size)]
    if exp.workers > 1:
        import concurrent.futures     # a serial sweep never loads it

        with concurrent.futures.ProcessPoolExecutor(
                exp.workers, initializer=_start_worker,
                initargs=(exp,)) as pool:
            batches = list(pool.map(_worker_batch, blocks))
    else:
        batches = [run_batch(exp, b, setup) for b in blocks]
    # a batch's records run power by power, len(block) of each
    all_records = [[rec for b, batch in zip(blocks, batches)
                    for rec in batch[p * len(b):(p + 1) * len(b)]]
                   for p in range(n_powers)]
    ref = reference_bounds(exp, setup)

    rmse = {}
    rmse_filtered = {}
    for stage in stage_list:
        classes = (("position", "orientation")
                   if stage in ("closed_form", "lm") else CHANNEL_CLASSES)
        per_power = [_stage_rmse(recs, stage, classes) for recs in all_records]
        for out, which in ((rmse, 0), (rmse_filtered, 1)):
            out[stage] = {c: np.array([p[which][c] for p in per_power])
                          for c in classes}

    bounds_ref = {c: np.array([r[c] for r in ref]) for c in REPORT_CLASSES}
    per_trial = [_aggregate_trial_bounds(recs) for recs in all_records]
    bounds_trial = {c: np.array([b[c] for b in per_trial])
                    for c in REPORT_CLASSES}
    n_failed = np.array([sum(r.error is not None for r in recs)
                         for recs in all_records])
    n_support_fail = np.array([sum((r.error is None) and (not r.support_ok)
                                   for r in recs) for recs in all_records])
    return SweepReport(powers_dbm=list(exp.powers_dbm), n_trials=exp.n_trials,
                       rmse=rmse, rmse_filtered=rmse_filtered,
                       bounds_ref=bounds_ref, bounds_trial=bounds_trial,
                       n_failed=n_failed, n_support_fail=n_support_fail,
                       records=all_records)


def _fmt(x) -> str:
    return f"{x:.12e}"


def write_summary_csv(report: SweepReport, path: str | Path) -> Path:
    """One aggregate row per power point."""
    path = Path(path)
    stages = list(report.rmse)
    cols = ["power_dbm", "n_trials", "n_failed", "n_support_fail"]
    for stage in stages:
        for cls in report.rmse[stage]:
            cols.append(f"rmse_{stage}_{cls}")
            cols.append(f"rmse_{stage}_{cls}_filtered")
    for cls in report.bounds_ref:
        cols.append(f"bound_{cls}")
        cols.append(f"bound_trial_{cls}")
    lines = [",".join(cols)]
    for i, p in enumerate(report.powers_dbm):
        row = [_fmt(p), str(report.n_trials), str(int(report.n_failed[i])),
               str(int(report.n_support_fail[i]))]
        for stage in stages:
            for cls in report.rmse[stage]:
                row.append(_fmt(report.rmse[stage][cls][i]))
                row.append(_fmt(report.rmse_filtered[stage][cls][i]))
        for cls in report.bounds_ref:
            row.append(_fmt(report.bounds_ref[cls][i]))
            row.append(_fmt(report.bounds_trial[cls][i]))
        lines.append(",".join(row))
    return _write_lines(path, lines)


def _write_lines(path: Path, lines: list) -> Path:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise IoError(str(exc)) from exc
    return path


_FIG_FILES = {
    "delta_re": "fig_delta_re.csv", "delta_im": "fig_delta_im.csv",
    "tau": "fig_tau_ns.csv", "theta_t": "fig_theta_t_deg.csv",
    "phi_in": "fig_phi_in_deg.csv", "psi_in": "fig_psi_in_deg.csv",
    "position": "fig_position_m.csv", "orientation": "fig_orientation_deg.csv",
}


def emit_plot_data(report: SweepReport, out_dir: str | Path) -> list[Path]:
    """Per-figure CSVs (power, coarse RMSE, refined RMSE, bound) plus a
    gnuplot script that renders them without edits."""
    out = Path(out_dir)
    paths = []
    for cls, name in _FIG_FILES.items():
        if cls in ("position", "orientation"):
            coarse_stage, refined_stage = "closed_form", "lm"
        else:
            coarse_stage, refined_stage = "coarse", "sage"
        lines = ["power_dbm,rmse_coarse,rmse_refined,bound"]
        for i, p in enumerate(report.powers_dbm):
            coarse = report.rmse.get(coarse_stage, {}).get(cls, [np.nan] * (i + 1))[i]
            refined = report.rmse.get(refined_stage, {}).get(cls, [np.nan] * (i + 1))[i]
            bound = report.bounds_ref[cls][i]
            lines.append(",".join([_fmt(p), _fmt(coarse), _fmt(refined),
                                   _fmt(bound)]))
        paths.append(_write_lines(out / name, lines))
    script = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set logscale y",
        "set xlabel 'transmit power (dBm)'",
    ]
    for cls, name in _FIG_FILES.items():
        script.append(f"set title '{cls}'")
        script.append(
            f"plot '{name}' using 1:2 with linespoints, "
            f"'{name}' using 1:3 with linespoints, "
            f"'{name}' using 1:4 with lines")
        script.append("pause -1")
    paths.append(_write_lines(out / "plots.gp", script))
    return paths
