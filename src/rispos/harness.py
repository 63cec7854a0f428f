"""Seeded Monte Carlo experiment engine and CSV emission.

Runs the synthesize -> coarse -> SAGE -> closed-form -> LM pipeline over
a transmit-power sweep, aggregates per-parameter RMSE curves next to the
corresponding bounds, and writes plot-ready CSV files (one per figure
panel analogue). What the trials at one power share is built once per
power point by ``power_setup``: a ``channel.Setup`` that every stage
takes, plus the parameter Jacobian at the true pose for the bounds.

This is the report edge of the channel coordinates: trial records keep
the channel vectors in (tau, gain, u, c, s), as the pipeline does, and
the reported channel errors and CRLBs are in angles (``channel_angles``,
``angle_crlb``), so the CSV columns and units are those of the paper.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import dataclasses
import numbers
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import bounds as bnd
from . import channel as ch
from . import coarse_est as ce
from . import positioning as pos_mod
from . import sage as sg
from .errors import IoError, RisposError
from .geometry import SPEED_OF_LIGHT, ScenarioGeometry, true_channel_params
from .params import ChannelParams, PositionParams, arrival_azimuth

_TAG_PILOTS = 1
_TAG_SCHEDULE = 2
_TAG_TRIAL = 3

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


# config fields that must be integers >= 1, and those that must be reals
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
        for name, least in ([(n, 1) for n in _COUNT_FIELDS]
                            + [("master_seed", 0)]):
            value = getattr(self, name)
            if not _is_number(value, numbers.Integral) or value < least:
                raise ValueError(
                    f"{name} must be an integer >= {least}, not {value!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if not _is_number(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, not {value!r}")
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
        if (not isinstance(self.powers_dbm, list) or not self.powers_dbm
                or not all(_is_number(p, numbers.Real) for p in self.powers_dbm)):
            raise ValueError("powers_dbm must be a non-empty list of real "
                             f"numbers, not {self.powers_dbm!r}")

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
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

    def system(self, power_dbm: float) -> ch.SystemConfig:
        return ch.SystemConfig(
            fc=self.fc_hz, bandwidth=self.bandwidth_hz,
            n_subcarriers=self.n_subcarriers, t_total=self.t_total,
            t1=self.t1, n_blocks=self.n_blocks, v_slots=self.v_slots,
            p_tx=ch.dbm_to_watt(power_dbm),
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
    assignment (the cost matrix of sorted lists is Monge).
    """
    perm = np.empty(np.size(u_true), dtype=int)
    perm[np.argsort(u_true, kind="stable")] = np.argsort(u_est, kind="stable")
    return perm


def channel_angles(params: ChannelParams) -> np.ndarray:
    """Rows [tau, delta_re, delta_im, theta_t, phi_in, psi_in] per path,
    (Q+1, 6): the angles of the report."""
    return np.column_stack([
        params.tau, params.gains.real, params.gains.imag, np.arcsin(params.u),
        np.arccos(params.c), arrival_azimuth(params.c, params.s)])


def angle_crlb(cov: np.ndarray, params: ChannelParams) -> np.ndarray:
    """CRLB variances of the ``channel_angles`` entries, (6(Q+1),), from
    the covariance bound ``cov`` of (tau, gain, u, c, s): the diagonal of
    D C D^T, with D the per-path Jacobian of the angles:
    d theta/du = 1/sqrt(1 - u^2), d phi/dc = -1/sqrt(1 - c^2),
    d psi/dc = -s c / (r (1 - c^2)) and d psi/ds = -1/r,
    r = sqrt(1 - c^2 - s^2)."""
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
    blocks = cov.reshape(n, 6, n, 6)[idx, :, idx, :]       # (Q+1, 6, 6)
    return np.einsum("qij,qjk,qik->qi", jac, blocks, jac).ravel()


def channel_sq_errors(est: ChannelParams, true: ChannelParams) -> dict:
    """Per-class squared errors (per path) after association, in angles."""
    perm = associate_paths(est.u, true.u)
    diff = channel_angles(est)[perm] - channel_angles(true)
    return {cls: diff[:, _CLASSES[cls][0]] ** 2 for cls in CHANNEL_CLASSES}


def position_sq_errors(est: PositionParams, true_geom: ScenarioGeometry) -> dict:
    return {
        "position": float(np.sum((est.ms - true_geom.ms) ** 2)),
        "orientation": pos_mod.wrapped_rotation_error(
            est.alpha, true_geom.alpha) ** 2,
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


def _support_matches(est: ChannelParams, true: ChannelParams,
                     g_ms: int) -> bool:
    """Coarse support within 1.5 grid cells of every true departure sine."""
    perm = associate_paths(est.u, true.u)
    return bool(np.all(np.abs(est.u[perm] - true.u) <= 1.5 * 2.0 / g_ms))


@dataclass
class PowerSetup(ch.Setup):
    """What every trial at one transmit power shares: the channel setup
    and the parameter Jacobian at the true pose (it does not depend on
    the gains).

    All of it is seeded by the master seed alone, so a sweep builds it
    once per power point and hands it to each trial and to the
    reference bounds.
    """

    t_true: np.ndarray = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        geom = self.geom
        self.t_true = bnd.transformation_matrix(
            PositionParams(gains=np.zeros(self.n_paths, complex), ms=geom.ms,
                           alpha=geom.alpha, scatterers=geom.scatterers),
            geom.ris, geom.bs)


def power_setup(exp: ExperimentConfig, power_dbm: float) -> PowerSetup:
    """The validated setup of one power point of ``exp``."""
    geom = exp.geometry()
    cfg = exp.system(power_dbm)
    cfg.validate(geom.n_scatterers + 1)
    pilots = ch.make_pilots(cfg, geom.n_ms,
                            np.random.SeedSequence((exp.master_seed, _TAG_PILOTS)))
    sched = ch.make_phase_schedule(cfg, geom.n_ris,
                                   np.random.SeedSequence((exp.master_seed, _TAG_SCHEDULE)))
    return PowerSetup(geom, cfg, pilots, sched)


def run_trial(exp: ExperimentConfig, power_dbm: float, power_idx: int,
              trial_idx: int, setup: PowerSetup | None = None) -> TrialRecord:
    """One seeded trial through the configured pipeline stages.

    Stage failures are captured in the record rather than aborting the
    sweep; every random draw derives from (master seed, power index,
    trial index) so scheduling cannot perturb results. ``setup`` is
    ``power_setup(exp, power_dbm)``, built here when not given.
    """
    entropy = (exp.master_seed, _TAG_TRIAL, power_idx, trial_idx)
    rec = TrialRecord(power_dbm=power_dbm, trial_index=trial_idx,
                      seed_entropy=entropy)
    if setup is None:
        setup = power_setup(exp, power_dbm)
    geom, cfg = setup.geom, setup.cfg

    ss = np.random.SeedSequence(entropy)
    gain_seed, noise_seed = ss.spawn(2)
    gains = ch.draw_gains(cfg, geom, np.random.default_rng(gain_seed))
    true = true_channel_params(geom, gains)
    rec.eta_true = true.to_vector()

    # per-trial bounds at the true parameters
    j_true = bnd.fim_channel(true, setup)
    rep = bnd.position_bounds(j_true, setup.t_true)
    rec.crlb = angle_crlb(rep.cov_channel, true)
    rec.peb, rec.oeb = rep.peb, rep.oeb

    obs = ch.synthesize_rx(setup, true,
                           noise_seed=np.random.default_rng(noise_seed),
                           noiseless=exp.noiseless)
    try:
        coarse = ce.run_coarse(obs, setup, refine_aod=exp.stage != "coarse")
        rec.stages["coarse"] = coarse.params.to_vector()
        rec.sq_errors["coarse"] = channel_sq_errors(coarse.params, true)
        rec.support_ok = _support_matches(coarse.params, true, cfg.g_ms)
        rec.flags.update(coarse.flags)
        est = coarse.params

        if exp.stage in ("sage", "lm"):
            refined, info = sg.run_sage(obs, setup, est)
            rec.stages["sage"] = refined.to_vector()
            rec.sq_errors["sage"] = channel_sq_errors(refined, true)
            rec.flags["sage_converged"] = info.converged
            rec.flags["sage_monotone"] = info.monotone_ok
            est = refined

        pos0, pflags = pos_mod.position_closed_form(est, geom.ris, geom.bs)
        rec.stages["closed_form"] = pos0.to_vector()
        rec.sq_errors["closed_form"] = position_sq_errors(pos0, geom)
        rec.flags.update(pflags)

        if exp.stage == "lm":
            j_est = bnd.fim_channel(est, setup)
            pos_ref, diag = pos_mod.refine_position_lm(
                est.to_vector(), j_est, pos0, geom.ris, geom.bs)
            rec.stages["lm"] = pos_ref.to_vector()
            rec.sq_errors["lm"] = position_sq_errors(pos_ref, geom)
            rec.flags["lm_stalled"] = diag.stalled
    except (RisposError, np.linalg.LinAlgError) as exc:
        rec.error = f"{type(exc).__name__}: {exc}"
    return rec


def _trial_star(args):
    return run_trial(*args)


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


def _report_bounds(crlb: np.ndarray, peb: float, oeb: float) -> dict:
    """Bounds in report units from per-path angle-unit CRLB variances
    ``crlb`` (..., 6), averaged over all leading axes, and the given PEB
    and OEB."""
    rms = {"position": peb, "orientation": oeb}
    for cls, (col, _) in _CLASSES.items():
        if col is not None:
            rms[cls] = float(np.sqrt(np.mean(crlb[..., col])))
    return {cls: rms[cls] * scale for cls, (_, scale) in _CLASSES.items()}


def reference_bounds(exp: ExperimentConfig, power_dbm: float,
                     setup: PowerSetup | None = None) -> dict:
    """Bound values at the nominal zero-shadowing gains (RNG-free).

    ``setup`` is ``power_setup(exp, power_dbm)``, built here when not given.
    """
    if setup is None:
        setup = power_setup(exp, power_dbm)
    gains = ch.nominal_gain_amplitudes(setup.cfg, setup.geom).astype(complex)
    true = true_channel_params(setup.geom, gains)
    j_eta = bnd.fim_channel(true, setup)
    rep = bnd.position_bounds(j_eta, setup.t_true)
    return _report_bounds(angle_crlb(rep.cov_channel, true).reshape(-1, 6),
                          rep.peb, rep.oeb)


def _aggregate_trial_bounds(records: list) -> dict:
    """Root-mean bounds at the trials' true parameters (one power point)."""
    recs = [r for r in records if r.error is None]
    if not recs:
        return {c: np.nan for c in REPORT_CLASSES}
    crlb = np.stack([r.crlb for r in recs]).reshape(len(recs), -1, 6)
    return _report_bounds(crlb,
                          float(np.sqrt(np.mean([r.peb ** 2 for r in recs]))),
                          float(np.sqrt(np.mean([r.oeb ** 2 for r in recs]))))


def _aggregate_rmse(records: list, stage: str, cls: str,
                    only_support_ok: bool) -> float:
    sq = []
    for rec in records:
        if rec.error is not None or stage not in rec.sq_errors:
            continue
        if only_support_ok and not rec.support_ok:
            continue
        sq.append(np.atleast_1d(rec.sq_errors[stage][cls]))
    if not sq:
        return np.nan
    return float(np.sqrt(np.mean(np.concatenate(sq)))) * _CLASSES[cls][1]


def run_sweep(exp: ExperimentConfig) -> SweepReport:
    """Monte Carlo sweep over transmit powers with per-trial RNG streams."""
    stage_list = ["coarse"]
    if exp.stage in ("sage", "lm"):
        stage_list.append("sage")
    stage_list.append("closed_form")
    if exp.stage == "lm":
        stage_list.append("lm")

    all_records, ref = [], []
    # one pool serves every power point; setups are still built one at a time
    pool = (concurrent.futures.ProcessPoolExecutor(exp.workers)
            if exp.workers > 1 else None)
    with pool or contextlib.nullcontext():
        for p_idx, power in enumerate(exp.powers_dbm):
            setup = power_setup(exp, power)
            tasks = [(exp, power, p_idx, t, setup)
                     for t in range(exp.n_trials)]
            if pool is not None:
                recs = list(pool.map(_trial_star, tasks, chunksize=4))
            else:
                recs = [run_trial(*t) for t in tasks]
            recs.sort(key=lambda r: r.trial_index)
            all_records.append(recs)
            ref.append(reference_bounds(exp, power, setup))

    rmse = {}
    rmse_filtered = {}
    for stage in stage_list:
        classes = (("position", "orientation")
                   if stage in ("closed_form", "lm") else CHANNEL_CLASSES)
        rmse[stage] = {c: np.array([
            _aggregate_rmse(recs, stage, c, False) for recs in all_records])
            for c in classes}
        rmse_filtered[stage] = {c: np.array([
            _aggregate_rmse(recs, stage, c, True) for recs in all_records])
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
