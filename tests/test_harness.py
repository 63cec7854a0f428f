"""Experiment engine: trials, sweeps, aggregation, CSV emission, CLI."""

import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import sample_layout, sample_layout_with
from oracles import min_association_cost, row_setup
from rispos import _damping as dm
from rispos import bounds as bnd
from rispos import channel as ch
from rispos import cli
from rispos import geometry as gm
from rispos import harness as hn
from rispos import positioning as pos_mod
from rispos import sage as sg
from rispos import errors
from rispos.errors import IoError
from rispos.params import PositionParams

MICRO = dict(n_trials=3, powers_dbm=[0.0, 20.0])


def test_run_trial_deterministic():
    exp = hn.ExperimentConfig(**dict(MICRO, powers_dbm=[20.0]))
    r1 = hn.run_trial(exp, 20.0, 0, 1)
    r2 = hn.run_trial(exp, 20.0, 0, 1)
    assert r1.error is None and r2.error is None
    for stage in r1.stages:
        assert np.array_equal(r1.stages[stage], r2.stages[stage])
    assert np.array_equal(r1.eta_true, r2.eta_true)


def test_run_trial_noiseless_ongrid(ongrid):
    exp = hn.ExperimentConfig(noiseless=True, powers_dbm=[20.0])
    exp.ms = ongrid.geom.ms.tolist()
    exp.alpha_deg = float(np.rad2deg(ongrid.geom.alpha))
    exp.scatterers = ongrid.geom.scatterers.tolist()
    rec = hn.run_trial(exp, 20.0, 0, 0)
    assert rec.error is None
    pos = PositionParams.from_vector(rec.stages["lm"])
    assert np.linalg.norm(pos.ms - ongrid.geom.ms) < 1e-6
    assert abs(pos.alpha - ongrid.geom.alpha) < 1e-6


def test_run_trial_prebuilt_setup_is_a_cache():
    """The sweep's setup gives each power's trial what it gives when it
    builds its own."""
    exp = hn.ExperimentConfig(n_trials=3, powers_dbm=[-10.0, 0.0, 10.0, 20.0])
    setup = hn.sweep_setup(exp)
    for p_idx, power in enumerate(exp.powers_dbm):
        built = hn.run_trial(exp, power, p_idx, 2)
        given = hn.run_trial(exp, power, p_idx, 2, setup)
        assert built.error == given.error
        assert list(built.stages) == list(given.stages)
        for stage in built.stages:
            assert np.array_equal(built.stages[stage], given.stages[stage])
        assert np.array_equal(built.crlb, given.crlb)
        assert built.peb == given.peb


@pytest.mark.parametrize("power,power_idx",
                         [(20.0, 0), (20.0, 4), (20.0, -1), (15.0, 3)])
def test_run_trial_rejects_a_power_index_off_its_power(power, power_idx):
    """``power_idx`` is the position of ``power_dbm`` in
    ``exp.powers_dbm`` (here -10, 0, 10 and 20 dBm): a trial that draws
    its own batch raises ``ValueError`` rather than run at the power of
    another index."""
    exp = hn.ExperimentConfig()
    with pytest.raises(ValueError, match="power_idx"):
        hn.run_trial(exp, power, power_idx, 0)


def _leaves(obj, name=""):
    """(path, leaf) of every value reachable through ``obj``'s dataclass
    fields and tuples."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _leaves(getattr(obj, f.name), f"{name}.{f.name}")
    elif isinstance(obj, tuple):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{name}[{i}]")
    else:
        yield name, obj


@pytest.mark.parametrize("overrides", [
    {}, {"scatterers": [[6.0, 5.0, 3.0], [0.0, 3.0, 6.0]], "t1": 22,
         "t_total": 43}])
def test_sweep_setups_are_power_setups(overrides):
    """Row k of a sweep's setup (``take([k])``) equals, leaf for leaf, the
    setup of a sweep of power k alone, and shares every array but the
    pilots and the truth's Gram with the sweep's setup, read-only."""
    exp = hn.ExperimentConfig(**overrides)
    sweep = hn.sweep_setup(exp)
    rows = [sweep.take([k]) for k in range(len(exp.powers_dbm))]
    for power, row in zip(exp.powers_dbm, rows):
        alone = dict(_leaves(hn.sweep_setup(
            dataclasses.replace(exp, powers_dbm=[power]))))
        leaves = dict(_leaves(row))
        assert leaves.keys() == alone.keys()
        for name, value in leaves.items():
            if isinstance(value, np.ndarray):
                assert value.dtype == alone[name].dtype, name
                assert np.array_equal(value, alone[name]), name
            else:
                assert value == alone[name], name
    first = dict(_leaves(sweep))
    for row in rows:
        own = set()
        for name, value in _leaves(row):
            if not isinstance(value, np.ndarray):
                continue
            if value is not first[name]:
                own.add(name)
                continue
            with pytest.raises(ValueError, match="read-only"):
                value[...] = value
        assert own == {".pilots", ".true_gram"}


def test_take_holds_exactly_the_taken_rows():
    """A batch's setup, ``take`` of the sweep's setup at the power index
    of each of its rows, holds exactly those rows' pilots, at their
    powers' amplitudes, and Grams, in order, and shares every other
    array; ``take`` of all rows in order is the setup itself."""
    exp = hn.ExperimentConfig()
    sweep = hn.sweep_setup(exp)
    rows = [2, 0, 2, 1]
    batch = sweep.take(rows)
    assert batch.pilots.shape == (len(rows),) + sweep.pilots.shape[1:]
    assert batch.true_gram.shape == (len(rows),) + sweep.true_gram.shape[1:]
    for k, p in enumerate(rows):
        assert np.array_equal(batch.pilots[k], sweep.pilots[p])
        assert np.array_equal(batch.true_gram[k], sweep.true_gram[p])
        amplitude = np.sqrt(ch.dbm_to_watt(exp.powers_dbm[p]) / exp.n_ms)
        assert np.allclose(np.abs(batch.pilots[k]), amplitude, rtol=1e-15,
                           atol=0.0)
    assert batch.aod_proj is sweep.aod_proj
    assert batch.true_unit is sweep.true_unit
    assert sweep.take(np.arange(len(exp.powers_dbm))) is sweep
    assert batch.take(np.arange(len(rows))) is batch


def test_setup_leaves_the_callers_arrays_writable():
    """A setup freezes its own copies of the geometry and schedule."""
    exp = hn.ExperimentConfig(scatterers=np.array([[6.0, 5.0, 3.0]]))
    geom, cfg = exp.geometry(), exp.system()
    sched = ch.make_phase_schedule(cfg, geom.n_ris, 7)
    setup = ch.Setup(geom, cfg, ch.make_pilots(cfg, geom.n_ms,
                                               ch.dbm_to_watt(20.0), 8), sched)
    hn.sweep_setup(exp)
    for mine, its in ((geom.bs, setup.geom.bs), (geom.ris, setup.geom.ris),
                      (geom.ms, setup.geom.ms),
                      (geom.scatterers, setup.geom.scatterers),
                      (sched.block_phases, setup.sched.block_phases),
                      (sched.slot_block, setup.sched.slot_block)):
        assert mine.flags.writeable and not its.flags.writeable
        assert np.array_equal(mine, its)
    assert exp.scatterers.flags.writeable


@pytest.mark.parametrize("stage,present,absent", [
    ("coarse", ["coarse", "closed_form"], ["sage", "lm"]),
    ("aod_mle", ["coarse", "closed_form"], ["sage", "lm"]),
    ("sage", ["coarse", "sage", "closed_form"], ["lm"]),
    ("lm", ["coarse", "sage", "closed_form", "lm"], []),
])
def test_stage_toggles(stage, present, absent):
    exp = hn.ExperimentConfig(stage=stage, **dict(MICRO, powers_dbm=[20.0]))
    rec = hn.run_trial(exp, 20.0, 0, 0)
    assert rec.error is None
    for s in present:
        assert s in rec.stages
    for s in absent:
        assert s not in rec.stages


@pytest.fixture(scope="module")
def micro_sweep():
    exp = hn.ExperimentConfig(**MICRO)
    return exp, hn.run_sweep(exp)


def test_sweep_aggregation_matches_records(micro_sweep):
    """Recomputing RMSE from raw records reproduces the report."""
    _, rep = micro_sweep
    for i, recs in enumerate(rep.records):
        sq = np.concatenate([np.atleast_1d(r.sq_errors["sage"]["tau"])
                             for r in recs if r.error is None])
        ref = np.sqrt(np.mean(sq)) * 1e9
        assert abs(rep.rmse["sage"]["tau"][i] - ref) < 1e-12 * ref
        sq_pos = [r.sq_errors["lm"]["position"] for r in recs
                  if r.error is None]
        ref_pos = np.sqrt(np.mean(sq_pos))
        assert abs(rep.rmse["lm"]["position"][i] - ref_pos) < 1e-12 * ref_pos


def test_summary_csv_schema(micro_sweep, tmp_path):
    exp, rep = micro_sweep
    path = hn.write_summary_csv(rep, tmp_path / "sweep_summary.csv")
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1 + len(exp.powers_dbm)
    header = lines[0].split(",")
    assert header[:4] == ["power_dbm", "n_trials", "n_failed",
                          "n_support_fail"]
    assert "rmse_sage_tau" in header
    assert "rmse_lm_position" in header
    assert "bound_position" in header
    for line in lines[1:]:
        assert len(line.split(",")) == len(header)


def test_emit_plot_data(micro_sweep, tmp_path):
    _, rep = micro_sweep
    paths = hn.emit_plot_data(rep, tmp_path)
    names = {p.name for p in paths}
    assert len([n for n in names if n.startswith("fig_")]) == 8
    assert "plots.gp" in names
    fig = (tmp_path / "fig_tau_ns.csv").read_text().strip().split("\n")
    assert fig[0] == "power_dbm,rmse_coarse,rmse_refined,bound"
    assert len(fig) == 1 + len(rep.powers_dbm)
    # the gnuplot script references only files that exist
    script = (tmp_path / "plots.gp").read_text()
    for name in names - {"plots.gp"}:
        assert name in script
    for token in script.split("'"):
        if token.startswith("fig_"):
            assert (tmp_path / token).exists()


def test_emit_plot_data_write_failure_is_io_error(micro_sweep, tmp_path):
    _, rep = micro_sweep
    (tmp_path / "fig_tau_ns.csv").mkdir()
    with pytest.raises(IoError):
        hn.emit_plot_data(rep, tmp_path)


def test_bound_columns_rng_free(micro_sweep, tmp_path):
    """Bound columns depend only on the config, not on trial RNG."""
    exp, rep = micro_sweep
    exp2 = hn.ExperimentConfig(n_trials=2, powers_dbm=MICRO["powers_dbm"])
    rep2 = hn.run_sweep(exp2)
    for cls in rep.bounds_ref:
        assert np.array_equal(rep.bounds_ref[cls], rep2.bounds_ref[cls])


def test_sweep_determinism_byte_identical(tmp_path):
    exp = hn.ExperimentConfig(n_trials=2, powers_dbm=[10.0])
    rep1 = hn.run_sweep(exp)
    rep2 = hn.run_sweep(exp)
    p1 = hn.write_summary_csv(rep1, tmp_path / "a.csv")
    p2 = hn.write_summary_csv(rep2, tmp_path / "b.csv")
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("seed", [0, 7, 20260809, 2**64 + 3])
def test_trial_seeds_are_the_spawned_children(seed):
    """A trial's gain and noise seeds are the children that
    ``SeedSequence.spawn(2)`` gives of its entropy, over a spread of
    master seeds, powers and trials: the same state and the same first
    draws."""
    exp = hn.ExperimentConfig(master_seed=seed)
    for p_idx, t_idx in [(0, 0), (3, 199), (1, 12345), (9, 2**40)]:
        spawned = np.random.SeedSequence(
            hn._trial_entropy(exp, p_idx, t_idx)).spawn(2)
        built = hn._trial_seeds(exp, p_idx, t_idx)
        assert len(built) == 2
        for new, old in zip(built, spawned):
            assert np.array_equal(new.generate_state(8),
                                  old.generate_state(8))
            assert np.array_equal(
                np.random.default_rng(new).standard_normal(4),
                np.random.default_rng(old).standard_normal(4))


def test_sweep_worker_count_invariant(tmp_path):
    """Parallel scheduling cannot perturb the results."""
    exp1 = hn.ExperimentConfig(n_trials=2, powers_dbm=[20.0], workers=1)
    exp2 = hn.ExperimentConfig(n_trials=2, powers_dbm=[20.0], workers=2)
    p1 = hn.write_summary_csv(hn.run_sweep(exp1), tmp_path / "w1.csv")
    p2 = hn.write_summary_csv(hn.run_sweep(exp2), tmp_path / "w2.csv")
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_worker_count_invariant_over_batches(tmp_path):
    """A pool task is one batch, a block of trial indices at every power;
    with three batches both workers get one, and the summary is the
    serial one."""
    csvs = []
    for workers in (1, 2):
        exp = hn.ExperimentConfig(n_trials=2 * hn.BATCH + 12,
                                  powers_dbm=[20.0], stage="coarse",
                                  workers=workers)
        assert exp.n_trials > 2 * hn.BATCH
        csvs.append(hn.write_summary_csv(
            hn.run_sweep(exp), tmp_path / f"w{workers}.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_sweep_worker_count_invariant_over_powers(tmp_path, monkeypatch):
    """At a batch cap of ``CAP``, four powers and 9 trials of stage lm are
    blocks of 4, 4 and 1 trial indices, the last partial; each worker
    builds the sweep's setup once, and the summary is the serial one."""
    monkeypatch.setattr(hn, "BATCH", CAP)
    csvs = []
    for workers in (1, 2):
        exp = hn.ExperimentConfig(master_seed=7, n_trials=9, workers=workers)
        assert exp.n_trials % (hn.BATCH // len(exp.powers_dbm)) != 0
        csvs.append(hn.write_summary_csv(
            hn.run_sweep(exp), tmp_path / f"w{workers}.csv").read_bytes())
    assert csvs[0] == csvs[1]


# the batch cap that the batch invariance tests run at: their trial counts
# give full blocks and a partial one at it, in few trials; the sweeps at
# the package's ``BATCH`` are cheap ones
CAP = 16


def _bits(value):
    """``value`` with every array and float as its bytes, so that ``==``
    compares bits, NaN included."""
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, (np.ndarray, float)):
        return np.asarray(value).tobytes()
    return value


def _assert_sweep_equals_lone_trials(exp) -> list:
    """The sweep of ``exp``, whose trials end in a partial block, gives
    every record, in trial order, its lone trial's bits in every field;
    returns the sweep's setup."""
    assert exp.n_trials % (hn.BATCH // len(exp.powers_dbm)) != 0
    report = hn.run_sweep(exp)
    setup = hn.sweep_setup(exp)
    for p_idx, (power, recs) in enumerate(zip(exp.powers_dbm,
                                              report.records)):
        assert [r.trial_index for r in recs] == list(range(exp.n_trials))
        for rec in recs:
            alone = hn.run_trial(exp, power, p_idx, rec.trial_index, setup)
            for f in dataclasses.fields(rec):
                assert (_bits(getattr(rec, f.name))
                        == _bits(getattr(alone, f.name))), (rec.trial_index,
                                                            f.name)
    return setup


def test_batched_sweep_equals_lone_trials(monkeypatch):
    """A sweep draws each batch, a block of trial indices at every power,
    at once, and a lone trial a batch of one: every sweep record equals
    its trial run alone, bit for bit, in every field, over full blocks
    and a partial one at the cap ``CAP``. The setup's truth at a stack of
    one trial's gains is its row of the truth at a larger stack of gains,
    and of the truth of a stacked setup, whose rows hold the Grams of
    several powers."""
    monkeypatch.setattr(hn, "BATCH", CAP)
    sweep = _assert_sweep_equals_lone_trials(
        hn.ExperimentConfig(master_seed=77, n_trials=50, stage="coarse"))
    setup = row_setup(sweep, 0)
    gains = np.stack([ch.draw_gains(setup.cfg, setup.geom, seed)
                      for seed in range(2 * hn.BATCH)])
    mixed = [k % len(sweep.pilots) for k in range(len(gains))]
    for stack, row_setups in ((setup, [setup] * len(gains)),
                              (sweep.take(mixed),
                               [row_setup(sweep, p) for p in mixed])):
        _assert_truth_rows_equal_lone_truth(stack, row_setups, gains)


def test_batched_sweep_at_the_package_cap_equals_lone_trials():
    """At the package's ``BATCH``, a stage-``coarse`` sweep at four powers
    over a full block and a partial one gives every record its lone
    trial's bits."""
    _assert_sweep_equals_lone_trials(hn.ExperimentConfig(
        master_seed=77, n_trials=hn.BATCH // 4 + 2, stage="coarse"))


def _assert_truth_rows_equal_lone_truth(stack, row_setups, gains):
    """The truth of the setup ``stack`` at the stack ``gains`` gives row k
    the bits of ``row_setups[k].truth(gains[k:k + 1])``, a stack of one."""
    stacked, reps = stack.truth(gains)
    crlb = hn.angle_crlb(reps.cov_channel, stacked)
    for k, (setup, g) in enumerate(zip(row_setups, gains)):
        true, rep = setup.truth(g[None])
        assert np.array_equal(true.gains[0], stacked.gains[k])
        for f in dataclasses.fields(rep):
            assert (_bits(getattr(rep.row(0), f.name))
                    == _bits(getattr(reps.row(k), f.name))), (k, f.name)
        assert (_bits(hn.angle_crlb(rep.cov_channel, true)[0])
                == _bits(crlb[k]))


@pytest.mark.parametrize("overrides", [
    dict(stage="coarse", noiseless=True),
    dict(stage="aod_mle"),
    dict(stage="lm"),
    # two scatterers: fits that run long, so blocks of 4, 4 and 1 trials
    dict(stage="lm", scatterers=[[6.0, 5.0, 3.0], [0.0, 3.0, 6.0]], t1=22,
         t_total=43, n_trials=CAP // 4 * 2 + 1),
], ids=["noiseless", "aod_mle", "lm", "q2_lm"])
def test_batched_stages_equal_lone_trials(overrides, monkeypatch):
    """Noiseless observations, and at stages ``aod_mle`` and ``lm``, with
    one scatterer or two, the stacked coarse stage and the AOD refinement,
    SAGE and the LM fit in lockstep over the batch, each trial on its own
    power's setup, give every sweep record at four powers its lone
    trial's bits, over full blocks and a partial one at the cap ``CAP``."""
    monkeypatch.setattr(hn, "BATCH", CAP)
    _assert_sweep_equals_lone_trials(hn.ExperimentConfig(
        **{"master_seed": 77, "n_trials": CAP + 5, **overrides}))


@pytest.mark.parametrize("fit", ["sage", "lm"])
def test_stacked_fits_keep_a_failing_rows_lone_error(fit, monkeypatch):
    """A batch of three trials (master seed 77, 20 dBm) whose middle trial
    fails at the start of the stacked fit: SAGE's first factor pass, or
    the LM fit's first Jacobian, raises on any stack that holds that
    trial's start. Each trial's fit then runs alone, so every record
    equals its lone trial's bit for bit, and the middle one holds the
    error its lone trial records, class and message."""
    exp = hn.ExperimentConfig(master_seed=77, n_trials=3, powers_dbm=[20.0])
    setup = hn.sweep_setup(exp)
    middle = hn.run_trial(exp, 20.0, 0, 1, setup)
    if fit == "sage":
        tau = middle.stages["coarse"].reshape(-1, 6)[:, 0]
        factors = ch.derivative_factors

        def stub(params, setup):
            if np.all(np.atleast_2d(params.tau) == tau, axis=1).any():
                raise errors.SingularConcentration("stubbed")
            return factors(params, setup)
        monkeypatch.setattr(ch, "derivative_factors", stub)
        message = "SingularConcentration: stubbed"
    else:
        ms = PositionParams.from_vector(middle.stages["closed_form"]).ms
        t_mat = pos_mod.transformation_matrix

        def stub(pos, ris, bs):
            if np.all(np.atleast_2d(pos.ms) == ms, axis=1).any():
                raise errors.DegenerateGeometry("stubbed")
            return t_mat(pos, ris, bs)
        monkeypatch.setattr(pos_mod, "transformation_matrix", stub)
        message = "DegenerateGeometry: stubbed"
    records = hn.run_batch(exp, range(3), setup)
    assert [r.error for r in records] == [None, message, None]
    for rec in records:
        alone = hn.run_trial(exp, 20.0, 0, rec.trial_index, setup)
        for f in dataclasses.fields(rec):
            assert (_bits(getattr(rec, f.name))
                    == _bits(getattr(alone, f.name))), (rec.trial_index,
                                                        f.name)


def test_serial_sweep_calls_run_trial_once_per_trial(monkeypatch):
    """A serial sweep runs every trial through the module's ``run_trial``,
    block by block and power by power within a block, so a wrapper of it
    sees each trial once."""
    calls = []
    run_trial = hn.run_trial

    def counted(exp, power_dbm, power_idx, trial_idx, *args):
        calls.append((power_idx, trial_idx))
        return run_trial(exp, power_dbm, power_idx, trial_idx, *args)

    monkeypatch.setattr(hn, "run_trial", counted)
    exp = hn.ExperimentConfig(n_trials=hn.BATCH + 1, powers_dbm=[0.0, 20.0],
                              stage="coarse")
    hn.run_sweep(exp)
    size = hn.BATCH // len(exp.powers_dbm)
    assert calls == [(p, t) for start in range(0, exp.n_trials, size)
                     for p in range(len(exp.powers_dbm))
                     for t in range(start, min(start + size, exp.n_trials))]


def test_serial_sweep_runs_the_closed_form_once_per_batch(monkeypatch):
    """A serial sweep runs ``positioning.position_closed_form`` once per
    batch, on the stack of all its trials, while ``run_trial`` still runs
    once per trial."""
    calls, trials = [], []
    closed_form, run_trial = pos_mod.position_closed_form, hn.run_trial

    def counted(params, *args):
        calls.append(len(params.tau))
        return closed_form(params, *args)

    def counted_trial(exp, power_dbm, power_idx, trial_idx, *args):
        trials.append((power_idx, trial_idx))
        return run_trial(exp, power_dbm, power_idx, trial_idx, *args)

    monkeypatch.setattr(pos_mod, "position_closed_form", counted)
    monkeypatch.setattr(hn, "run_trial", counted_trial)
    exp = hn.ExperimentConfig(n_trials=hn.BATCH + 1, powers_dbm=[0.0, 20.0],
                              stage="coarse")
    report = hn.run_sweep(exp)
    assert not report.n_failed.any()
    size = hn.BATCH // len(exp.powers_dbm)
    assert calls == [len(exp.powers_dbm) * len(range(t, min(t + size,
                                                            exp.n_trials)))
                     for t in range(0, exp.n_trials, size)]
    assert sorted(trials) == [(p, t) for p in range(len(exp.powers_dbm))
                              for t in range(exp.n_trials)]


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("n_trials: 5\npowers_dbm: [3.0]\nmaster_seed: 99\n"
                   "stage: sage\n")
    exp = hn.ExperimentConfig.from_file(cfg)
    assert exp.n_trials == 5
    assert exp.powers_dbm == [3.0]
    assert exp.master_seed == 99
    assert exp.stage == "sage"
    bad = tmp_path / "bad.yaml"
    bad.write_text("not_a_field: 1\n")
    with pytest.raises(ValueError):
        hn.ExperimentConfig.from_file(bad)


@pytest.mark.parametrize(
    "text", ["ms: [1, 2\n", "5\n", "- 1\n- 2\n", "1: 2\nbogus: 3\n"],
    ids=["syntax_error", "scalar", "list", "non_string_key"])
def test_config_file_malformed_is_value_error(tmp_path, capsys, text):
    """A config that is not YAML, not a mapping at the top level, or has
    keys that are not config fields, is a ValueError, which the CLI
    reports as an error with exit code 2."""
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    with pytest.raises(ValueError):
        hn.ExperimentConfig.from_file(bad)
    assert cli.main(["bounds", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("text", [
    "powers_dbm: 20\n", "powers_dbm: []\n", "powers_dbm: [20, x]\n",
    "powers_dbm: [true]\n", "n_trials: 2.5\n", "n_trials: 0\n",
    "n_trials: true\n", "workers: 2.0\n", "workers: 0\n", "workers: -1\n",
    "powers_dbm: [20, .nan]\n", "out_dir: null\n", "out_dir: ''\n"],
    ids=["powers_scalar", "powers_empty", "powers_string", "powers_bool",
         "trials_float", "trials_zero", "trials_bool", "workers_float",
         "workers_zero", "workers_negative", "powers_nan", "out_dir_null",
         "out_dir_empty"])
def test_config_bad_types_are_value_errors(tmp_path, capsys, text):
    """A config whose powers are not a non-empty list of finite reals
    (a NaN power ended every trial in a LinAlgError), whose trial or
    worker count is not an integer >= 1, or whose output directory is
    not a non-empty string (null wrote ./None/sweep_summary.csv, then
    raised a TypeError), is a ValueError naming the field, which the CLI
    reports with exit code 2."""
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    field_name = text.split(":")[0]
    with pytest.raises(ValueError, match=field_name):
        hn.ExperimentConfig.from_file(bad)
    assert cli.main(["sweep", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field_name}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_cli_workers_below_one_rejected(tmp_path, capsys, workers):
    out = tmp_path / "w"
    assert cli.main(["sweep", "--trials", "1", "--powers", "20",
                     "--workers", workers, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: workers")
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "master_seed: 1.5\n", "master_seed: true\n", "master_seed: -1\n",
    "master_seed: '7'\n"],
    ids=["float", "bool", "negative", "string"])
def test_config_master_seed_must_be_a_nonnegative_integer(tmp_path, capsys,
                                                         text):
    """A master seed that is not an integer >= 0 is a ValueError naming
    the field (a float was a TypeError traceback, a bool ran as seed 1),
    which the CLI reports with exit code 2."""
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    with pytest.raises(ValueError, match="master_seed"):
        hn.ExperimentConfig.from_file(bad)
    assert cli.main(["bounds", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: master_seed")


@pytest.mark.parametrize("argv, field_name", [
    (["sweep", "--seed", "-5", "--trials", "1", "--powers", "20"],
     "master_seed"),
    (["trial", "--power", "20", "--trial", "-1"], "--trial"),
    (["trial", "--power", "20", "--seed", "-1"], "master_seed")],
    ids=["sweep_seed", "trial_index", "trial_seed"])
def test_cli_negative_seed_or_trial_rejected(tmp_path, capsys, argv,
                                             field_name):
    """A negative --seed or --trial exits 2 with an error naming it, not
    NumPy's bare seeding message, and writes nothing."""
    out = tmp_path / "out"
    extra = ["--out", str(out)] if argv[0] == "sweep" else []
    assert cli.main(argv + extra) == 2
    assert capsys.readouterr().err.startswith(f"error: {field_name}")
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "n_bs: 2.5\n", "n_ms: 0\n", "n_ris_az: '10'\n", "n_ris_el: true\n",
    "n_subcarriers: 0\n", "t_total: 37.0\n", "t1: -16\n", "n_blocks: 0\n",
    "v_slots: 1.5\n", "g_ms: 0\n", "g_ris_az: 2.5\n", "g_ris_el: -1\n",
    "fc_hz: 0\n", "bandwidth_hz: -2.0e7\n", "fc_hz: x\n",
    "alpha_deg: x\n", "ris_spacing_wl: [1]\n", "shadow_std_db: -1\n",
    "bs_spacing_wl: 0.6\n", "ms_spacing_wl: -0.5\n", "ris_spacing_wl: 0\n",
    "noiseless: 'false'\n", "noiseless: 1\n", "ms: [22, 35]\n",
    "bs: [0, 0, .nan]\n", "ris: [-6, x, 20]\n", "ms: 22\n",
    "scatterers: [[6, 5]]\n", "scatterers: [[6, 5, .inf]]\n",
    "scatterers: 6\n", "fc_hz: .inf\n", "noise_density_dbm_hz: .nan\n",
    "alpha_deg: 200\n", "alpha_deg: -1\n"],
    ids=["n_bs_float", "n_ms_zero", "n_ris_az_string", "n_ris_el_bool",
         "n_subcarriers_zero", "t_total_float", "t1_negative",
         "n_blocks_zero", "v_slots_float", "g_ms_zero", "g_ris_az_float",
         "g_ris_el_negative", "fc_zero", "bandwidth_negative", "fc_string",
         "alpha_string", "spacing_list", "shadow_negative", "bs_spacing_wide",
         "ms_spacing_negative", "ris_spacing_zero", "noiseless_string",
         "noiseless_int", "ms_two_entries", "bs_nan", "ris_string",
         "ms_scalar", "scatterer_two_entries", "scatterer_inf",
         "scatterers_scalar", "fc_inf", "noise_density_nan", "alpha_above",
         "alpha_negative"])
def test_config_bad_counts_and_reals_are_value_errors(tmp_path, capsys, text):
    """An array, subcarrier, slot or grid count that is not an integer
    >= 1, a carrier or bandwidth that is not a real > 0, an element
    spacing outside (0, 0.5] wavelengths, a negative shadowing spread, or
    another real setting that is not a real number, is a ValueError
    naming the field, which the CLI reports with exit code 2 (n_bs: 2.5
    ran as 3 antennas, zeros divided by zero, strings were TypeError
    tracebacks, a zero RIS spacing ran a sweep of meaningless bounds, a
    negative shadowing spread failed in NumPy's sampler). So is a
    ``noiseless`` that is not a bool (the string 'false' ran noiseless),
    a node or scatterer that is not three finite reals (ms: [22, 35]
    failed in NumPy's reshape, naming no field), and a non-finite real
    setting (an infinite carrier was a ZeroDivisionError traceback), or a
    rotation outside [0, 180) degrees (it named the geometry's alpha)."""
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    field_name = text.split(":")[0]
    with pytest.raises(ValueError, match=field_name):
        hn.ExperimentConfig.from_file(bad)
    assert cli.main(["bounds", "--config", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field_name}")


def test_config_accepts_every_benchmark_config():
    """Every config the benchmark's workloads build passes the checks."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(perfbench))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(perfbench))
    for wl in workloads.WORKLOADS.values():
        for rep in range(3):
            cfgs = (wl.layout_configs(7, rep) if wl.kind == "layouts"
                    else [wl.sweep_config(7, rep), wl.sweep_config(7, rep, 2)])
            for cfg in cfgs:
                assert isinstance(cfg, hn.ExperimentConfig)
                cfg.geometry()


def test_config_accepts_numpy_integer_seed():
    assert hn.ExperimentConfig(master_seed=np.int64(0)).master_seed == 0


@pytest.mark.parametrize("kwargs", [
    {"powers_dbm": [-10.0, 0.0, 10.0, 20.0], "n_trials": 4, "workers": 2},
    {"powers_dbm": [20], "n_trials": 1, "workers": 1},
    {"powers_dbm": [np.float64(3.5)], "n_trials": np.int64(3),
     "workers": np.int32(1)}], ids=["floats", "int_power", "numpy_scalars"])
def test_config_accepts_real_powers_and_integer_counts(kwargs):
    exp = hn.ExperimentConfig(**kwargs)
    assert exp.n_trials == kwargs["n_trials"]


@pytest.mark.parametrize("n_paths", range(1, 7))
def test_associate_paths_attains_min_cost(n_paths):
    """The association is a permutation whose summed |sin AOD| distance is
    the exhaustive minimum, also with tied and repeated sines."""
    rng = np.random.default_rng(n_paths)
    levels = np.arcsin([-0.5, 0.1, 0.6])
    draws = []
    for draw in range(30):
        if draw % 3 == 0:
            est = rng.uniform(-np.pi / 2, np.pi / 2, n_paths)
            true = rng.uniform(-np.pi / 2, np.pi / 2, n_paths)
        elif draw % 3 == 1:               # ties within and across the lists
            est = rng.choice(levels, n_paths)
            true = rng.choice(levels, n_paths)
        else:                             # the truth, reordered
            true = rng.choice(levels, n_paths)
            est = rng.permutation(true)
        perm = hn.associate_paths(est, true)
        assert sorted(perm) == list(range(n_paths))
        cost = np.sum(np.abs(np.sin(est[perm]) - np.sin(true)))
        assert abs(cost - min_association_cost(est, true)) <= 1e-12
        draws.append((est, true, perm))
    # the draws as a (30, Q+1) stack, ties included, against their stacked
    # truths or one shared truth: each row is that row's lone association
    ests, trues, perms = map(np.stack, zip(*draws))
    assert np.array_equal(hn.associate_paths(ests, trues), perms)
    for est, perm in zip(ests, hn.associate_paths(ests, trues[0])):
        assert np.array_equal(perm, hn.associate_paths(est, trues[0]))


def test_import_is_scipy_free():
    """The package and its command line import with NumPy and PyYAML alone."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, rispos, rispos.harness, rispos.cli; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("power", [-10.0, 20.0])
def test_reference_bounds_match_the_fim_channel_path(power):
    """``reference_bounds`` reads the setup's unit-gain Gram; every bound
    equals the one from ``fim_channel`` at ``true_channel_params`` of the
    nominal gains to 1e-10 relative."""
    exp = hn.ExperimentConfig()
    p_idx = exp.powers_dbm.index(power)
    sweep = hn.sweep_setup(exp)
    setup = row_setup(sweep, p_idx)
    gains = ch.nominal_gain_amplitudes(setup.cfg, setup.geom).astype(complex)
    true = gm.true_channel_params(setup.geom, gains)
    rep = bnd.position_bounds(bnd.fim_channel(true, setup)[None],
                              setup.t_true).row(0)
    ref = hn._report_bounds(
        hn.angle_crlb(rep.cov_channel, true).reshape(-1, 6), rep.peb, rep.oeb)
    got = hn.reference_bounds(exp, sweep)[p_idx]
    for cls in hn.REPORT_CLASSES:
        assert got[cls] == pytest.approx(ref[cls], rel=1e-10), cls


def test_stacked_reference_bounds_equal_each_powers_lone_path():
    """The sweep's reference bounds come from one stacked pass over its
    powers; each power's bounds equal, bit for bit, those of its row
    alone, ``SweepSetup.truth`` at a stack of one of the nominal gains,
    and the bounds of a sweep of that power alone."""
    exp = hn.ExperimentConfig(master_seed=77)
    sweep = hn.sweep_setup(exp)
    stacked = hn.reference_bounds(exp, sweep)
    assert _bits(hn.reference_bounds(exp)) == _bits(stacked)
    for k, (power, got) in enumerate(zip(exp.powers_dbm, stacked)):
        setup = row_setup(sweep, k)
        gains = ch.nominal_gain_amplitudes(setup.cfg,
                                           setup.geom).astype(complex)
        true, reps = setup.truth(gains[None])
        rep = reps.row(0)
        lone = hn._report_bounds(
            hn.angle_crlb(reps.cov_channel, true)[0].reshape(-1, 6),
            rep.peb, rep.oeb)
        assert _bits(got) == _bits(lone), power
        built = hn.reference_bounds(
            dataclasses.replace(exp, powers_dbm=[power]))[0]
        assert _bits(got) == _bits(built), power


@pytest.mark.filterwarnings("error")
def test_reference_bounds_of_one_subcarrier_divide_by_no_zero():
    """With one subcarrier the channel FIM has eigenvalues of exactly 0,
    which its inverse drops: ``reference_bounds`` forms the inverse
    eigenvalues only where they are kept, so it runs with warnings as
    errors, and its position and orientation bounds are finite."""
    exp = hn.ExperimentConfig(n_subcarriers=1, powers_dbm=[20.0])
    (bounds,) = hn.reference_bounds(exp)
    assert np.isfinite(bounds["position"]) and bounds["position"] > 0.0
    assert np.isfinite(bounds["orientation"]) and bounds["orientation"] > 0.0


def test_cli_bounds_and_trial(capsys):
    assert cli.main(["bounds", "--powers", "0", "10"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0].startswith("power_dbm,")
    assert len(out) == 3

    assert cli.main(["trial", "--power", "20", "--trial", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] is None
    assert "lm" in payload["stages"]


def test_cli_trial_matches_sweep_trial(capsys):
    """``trial --power 20 --trial 1`` is trial 1 of the sweep at 20 dBm."""
    exp = hn.ExperimentConfig(n_trials=2)
    assert exp.powers_dbm[3] == 20.0
    rec = hn.run_sweep(exp).records[3][1]
    assert cli.main(["trial", "--power", "20", "--trial", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["stages"]) == list(rec.stages)
    for stage, vec in rec.stages.items():
        assert np.array_equal(np.asarray(payload["stages"][stage]), vec)


@pytest.mark.parametrize("power,trial,failed", [(20.0, 0, False),
                                                (-10.0, 71, True)])
def test_lm_weight_is_the_scoring_fim(power, trial, failed, monkeypatch):
    """An lm trial whose SAGE scoring converged weights LM with scoring's
    last FIM, which is ``fim_channel`` at the SAGE estimate bit for bit,
    and so never calls ``fim_channel`` (the bounds at the truth read the
    setup's unit-gain Gram), one call fewer than a trial on which SAGE did
    not converge (master seed 77). Trial 71 needs many damped steps, so
    with the step cap cut to one SAGE ends unconverged; the cap is shared,
    so the AOD refinement and the LM fit take one step each too."""
    if failed:
        monkeypatch.setattr(dm, "MAX_STEPS", 1)
    exp = hn.ExperimentConfig(master_seed=77)
    sweep = hn.sweep_setup(exp)
    setup = row_setup(sweep, exp.powers_dbm.index(power))
    seen = {"fim_calls": 0}
    fim_channel, run_sage = bnd.fim_channel, sg.run_sage
    refine = pos_mod.refine_position_lm

    def counted(*args):
        seen["fim_calls"] += 1
        return fim_channel(*args)

    def sage(*args, **kwargs):
        out = run_sage(*args, **kwargs)
        seen["sage"] = out
        return out

    def lm(eta_hat, j_eta, *args):
        seen["j_eta"] = j_eta
        return refine(eta_hat, j_eta, *args)
    monkeypatch.setattr(bnd, "fim_channel", counted)
    monkeypatch.setattr(sg, "run_sage", sage)
    monkeypatch.setattr(pos_mod, "refine_position_lm", lm)
    rec = hn.run_trial(exp, power, exp.powers_dbm.index(power), trial, sweep)
    assert rec.error is None
    # the trial's batch of one runs both fits on stacks of one
    refined, (info,) = seen["sage"]
    assert (info.fim is None) is failed
    assert seen["fim_calls"] == (1 if failed else 0)
    assert np.array_equal(seen["j_eta"][0],
                          fim_channel(refined.take(0), setup))


def test_cli_trial_prints_scoring_flags(capsys):
    """``rispos trial`` reports how the AOD refinement, SAGE and the LM
    fit ended: master seed 7, -10 dBm, trial 4, on which SAGE takes damped
    scoring steps and converges. No flag of the removed full-search
    fall-backs, nor the LM's old stall flag, is printed."""
    assert cli.main(["trial", "--seed", "7", "--power", "-10",
                     "--trial", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] is None
    flags = payload["flags"]
    assert flags["sage_converged"] is True
    assert flags["sage_scoring_steps"] > 0 and flags["aod_steps"] > 0
    assert flags["lm_converged"] is True and flags["lm_steps"] > 0
    assert not {"sage_cycles", "sage_monotone", "aod_passes",
                "lm_stalled"} & set(flags)


def test_cli_trial_prints_flags_as_json_values(capsys):
    """``rispos trial`` prints each flag as its JSON value, not as the
    string of a Python repr: ``aoa_clamped`` loads as a list of one bool
    per path, the record's own."""
    exp = hn.ExperimentConfig()
    rec = hn.run_trial(exp, 20.0, exp.powers_dbm.index(20.0), 0)
    assert cli.main(["trial", "--power", "20"]) == 0
    flags = json.loads(capsys.readouterr().out)["flags"]
    clamped = flags["aoa_clamped"]
    assert isinstance(clamped, list) and len(clamped) == rec.eta_true.size // 6
    assert all(isinstance(v, bool) for v in clamped)
    assert clamped == list(rec.flags["aoa_clamped"])


def test_cli_trial_unknown_power(capsys):
    assert cli.main(["trial", "--power", "15"]) == 2
    err = capsys.readouterr().err
    assert "15" in err and "[-10.0, 0.0, 10.0, 20.0]" in err


def test_cli_sweep_and_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("n_trials: 2\npowers_dbm: [20.0]\n"
                   f"out_dir: {tmp_path / 'out'}\n")
    assert cli.main(["sweep", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "sweep_summary.csv").exists()

    bad = tmp_path / "bad.yaml"
    bad.write_text("bogus_key: 1\n")
    assert cli.main(["sweep", "--config", str(bad)]) == 2


def test_cli_simulate(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("n_trials: 2\npowers_dbm: [20.0]\n")
    out = tmp_path / "sim"
    assert cli.main(["simulate", "--config", str(cfg), "--out",
                     str(out)]) == 0
    assert (out / "sweep_summary.csv").exists()
    assert (out / "plots.gp").exists()
    assert len(list(out.glob("fig_*.csv"))) == 8


def test_cli_empty_out_rejected(tmp_path, monkeypatch, capsys):
    """An empty --out is rejected before the sweep runs: it put the
    summary at /sweep_summary.csv and the figure files in the cwd."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["simulate", "--trials", "1", "--powers", "20",
                     "--out", ""]) == 2
    assert capsys.readouterr().err.startswith("error: out_dir")
    assert list(tmp_path.iterdir()) == []


def test_cli_override_is_validated(tmp_path, capsys):
    """A command-line override goes through the same checks as a config."""
    out = tmp_path / "zero"
    assert cli.main(["sweep", "--trials", "0", "--powers", "20",
                     "--out", str(out)]) == 2
    assert "n_trials" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed,unit,power", [(62, 13, -10.0), (1005, 21, 0.0)])
def test_pole_arrival_trials_end_in_estimate(seed, unit, power):
    """Benchmark ref_lm trials whose coarse RIS arrival is the pole of the
    (c, s) disk: a regular point in (c, s), so run_trial ends without an
    error and with finite closed-form and LM stages."""
    master = int(np.random.SeedSequence((seed, unit)).generate_state(1)[0])
    exp = hn.ExperimentConfig(master_seed=master, n_trials=1, stage="lm")
    rec = hn.run_trial(exp, power, exp.powers_dbm.index(power), 0)
    assert rec.error is None
    assert np.all(np.isfinite(rec.stages["closed_form"]))
    assert np.all(np.isfinite(rec.stages["lm"]))


def _err_over_peb(rec: hn.TrialRecord) -> float:
    assert rec.error is None
    return np.sqrt(rec.sq_errors["lm"]["position"]) / rec.peb


@pytest.mark.parametrize("draw", [9, 16, 29, 35])
def test_scatterer_arrival_off_the_differential_grid_ends_near_peb(draw):
    """``sample_layout`` draws (default_rng(2026), 20 dBm) whose scatterer
    arrival lay off the RIS grid when that grid was differential, offset
    by the leg: the coarse pick was clamped and the trial ended at
    890-5,040x its PEB. The absolute grid spans every arrival."""
    rng = np.random.default_rng(2026)
    for _ in range(draw + 1):
        geom = sample_layout(rng)
    exp = hn.ExperimentConfig(
        ms=geom.ms.tolist(), alpha_deg=float(np.rad2deg(geom.alpha)),
        scatterers=geom.scatterers.tolist(), powers_dbm=[20.0], n_trials=1)
    assert _err_over_peb(hn.run_trial(exp, 20.0, 0, 0)) < 10.0


def _one_scatterer_fuzz_trial(draw: int) -> hn.TrialRecord:
    """The lm trial of ``sample_layout`` draw ``draw`` of default_rng(11),
    master seed 5, 20 dBm, noisy: one of the one-scatterer fuzz set."""
    rng = np.random.default_rng(11)
    for _ in range(draw + 1):
        geom = sample_layout(rng)
    exp = hn.ExperimentConfig(
        ms=geom.ms.tolist(), alpha_deg=float(np.rad2deg(geom.alpha)),
        scatterers=geom.scatterers.tolist(), powers_dbm=[20.0], n_trials=1,
        master_seed=5, stage="lm")
    return hn.run_trial(exp, 20.0, 0, 0)


@pytest.mark.parametrize("draw", [35, 55])
def test_scoring_after_every_cycle_ends_near_peb(draw):
    """``sample_layout`` draws (default_rng(11), master seed 5, 20 dBm,
    noisy) on which plain scoring from the coarse point lowers the
    likelihood. Damped scoring ends LM at 1.06x and 0.73x PEB; coordinate
    cycles alone stopped on their likelihood rule short of the ML point
    and ended LM at 1.60x and 2.01x."""
    assert _err_over_peb(_one_scatterer_fuzz_trial(draw)) < 1.5


@pytest.mark.parametrize("draw", [2, 13, 23, 37, 48, 52])
def test_end_fire_sine_folds_onto_its_alias_and_ends_near_peb(draw):
    """One-scatterer fuzz draws whose scatterer path leaves the MS near
    end-fire. At d_ms = lambda/2 the sines u and u +- 2 give one steering
    vector; SAGE clipped u to [-1, 1], held the sine on the wrong bound
    and ended LM at 9,500x to 55,500x PEB. With u folded into [-1, 1),
    the sine crosses over and LM ends at 0.60x to 2.65x PEB."""
    assert _err_over_peb(_one_scatterer_fuzz_trial(draw)) < 10.0


def test_two_scatterer_noiseless_trial_ends_near_peb():
    """Q = 2 with a feasible schedule (T1 >= 8(Q+1) - 2), noiseless, at
    20 dBm: every path's RIS arrival lies on the absolute grid's span,
    so the LM fit ends within 10x the PEB."""
    exp = hn.ExperimentConfig(scatterers=[[6.0, 5.0, 3.0], [0.0, 3.0, 6.0]],
                              t1=22, t_total=43, powers_dbm=[20.0],
                              n_trials=1, noiseless=True)
    assert _err_over_peb(hn.run_trial(exp, 20.0, 0, 0)) < 10.0


def _fuzz_records(layouts) -> list:
    """One noisy lm trial per (geometry, schedule) layout, master seed 5,
    20 dBm."""
    records = []
    for geom, schedule in layouts:
        exp = hn.ExperimentConfig(
            ms=geom.ms.tolist(), alpha_deg=float(np.rad2deg(geom.alpha)),
            scatterers=geom.scatterers.tolist(), powers_dbm=[20.0],
            n_trials=1, master_seed=5, stage="lm", **schedule)
        records.append(hn.run_trial(exp, 20.0, 0, 0))
    return records


def _fuzz_ratios(records) -> np.ndarray:
    """LM error/PEB of each record; inf for a trial that ended in an
    error."""
    return np.asarray([np.inf if rec.error else _err_over_peb(rec)
                       for rec in records])


@pytest.fixture(scope="module")
def two_scatterer_fuzz():
    """40 two-scatterer draws, a ``sample_layout`` draw plus a second
    scatterer from the same box (default_rng(2027), T1 = 22, T = 43)."""
    rng = np.random.default_rng(2027)
    return _fuzz_records([(sample_layout_with(rng, 2),
                           {"t1": 22, "t_total": 43}) for _ in range(40)])


def test_one_scatterer_fuzz_ends_near_peb():
    """60 ``sample_layout`` draws (default_rng(11)): at most 1 ends above
    10x PEB (draw 26), the count measured when SAGE began to fold its
    sines at lambda/2 spacing; with the sines clipped 7 did, six of them
    end-fire paths (u and u +- 2 alias), and full-search fall-backs left
    8."""
    rng = np.random.default_rng(11)
    ratios = _fuzz_ratios(_fuzz_records([(sample_layout(rng), {})
                                         for _ in range(60)]))
    assert np.sum(ratios > 10.0) <= 1, np.flatnonzero(ratios > 10.0)


def test_two_scatterer_fuzz_ends_near_peb(two_scatterer_fuzz):
    """On the 40 two-scatterer draws at most 8 end above 10x PEB (draws 1,
    4, 7, 26, 29, 30, 32 and 35), the count measured when SAGE began to
    fold its sines at lambda/2 spacing; with the sines clipped 13 did, and
    23 with full-search fall-backs. The rest are wrong local maxima of the
    likelihood."""
    ratios = _fuzz_ratios(two_scatterer_fuzz)
    assert np.sum(ratios > 10.0) <= 8, np.flatnonzero(ratios > 10.0)


def test_two_scatterer_aod_refinement_rarely_runs_its_cap(
        two_scatterer_fuzz):
    """On the 40 two-scatterer draws the AOD refinement takes its 100-step
    cap on at most 4 (draws 4, 12, 26 and 30), the count measured when
    its stop rule became the decrement in nats; stopping when the
    undamped step moved no sine by 1e-9 left 10 capped. On those four
    the stencil's difference noise keeps the decrement above 1e-6 nats
    at the maximum."""
    capped = [k for k, rec in enumerate(two_scatterer_fuzz)
              if rec.flags.get("aod_steps") == dm.MAX_STEPS]
    assert len(capped) <= 4, capped


def _admissible_layouts():
    """30 one-scatterer ``sample_layout`` draws (default_rng(2026)), and 10
    two-scatterer draws: a ``sample_layout`` draw plus a second scatterer
    from the same box (default_rng(2027)), with the schedule Q = 2 needs."""
    rng = np.random.default_rng(2026)
    layouts = [(sample_layout(rng), {}) for _ in range(30)]
    rng = np.random.default_rng(2027)
    layouts += [(sample_layout_with(rng, 2), {"t1": 22, "t_total": 43})
                for _ in range(10)]
    return layouts


_TYPED_ERRORS = {"LinAlgError"} | {
    cls.__name__ for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.RisposError)}


@pytest.mark.parametrize("power", [-10.0, 20.0])
def test_no_exception_escapes_run_trial_on_admissible_layouts(power):
    """Every admissible layout gives an estimate or a typed error: each
    ``run_trial`` returns, and a failed trial names a ``RisposError``
    subclass or ``LinAlgError``."""
    for geom, schedule in _admissible_layouts():
        exp = hn.ExperimentConfig(
            ms=geom.ms.tolist(), alpha_deg=float(np.rad2deg(geom.alpha)),
            scatterers=geom.scatterers.tolist(), powers_dbm=[power],
            n_trials=1, **schedule)
        rec = hn.run_trial(exp, power, 0, 0)
        assert rec.error is None or rec.error.split(":")[0] in _TYPED_ERRORS, \
            (geom.ms, geom.scatterers, rec.error)
