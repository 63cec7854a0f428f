"""rispos benchmark: sweep throughput, trial latency and accuracy per workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ref_lm --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with tracing off.
``--trace 1`` runs half as many units untraced, then the same units again
traced, and prints the per-layer metrics instead. How many units a run
does follows from ``--seconds`` alone, so ``attempted``, ``failed`` and
the accuracy figures are the same on every run with the same seed. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the details (environment, failures by class, digests, the tail
percentile).

All workloads run closed loop in this one process: the next unit starts
when the previous one has returned. The benchmark drives rispos only
through ``harness.run_sweep``, ``harness.run_trial``,
``harness.write_summary_csv`` and ``ExperimentConfig``. It never sets BLAS
thread variables, so thread oversubscription stays visible. Scratch files
go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_PROBES = 5
TAIL_WINDOW = 100
# the output check's sweep: enough trials that the pool's chunks of 4
# reach two workers
CHECK_TRIALS = 8
# acceptance criterion 6 bounds the LM position RMSE at 3x the PEB
MAX_LM_ERR_OVER_PEB = 3.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {
    "trials_per_s": "trials/s", "trial_p50_s": "s", "trial_tail_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB", "ok_share": "ratio",
    "pos_err_over_peb_p50": "ratio",
}
FAILURE_CLASSES = (
    "DegenerateGeometry", "RankDeficient", "SingularConcentration",
    "SparsityInfeasible", "OutOfRange", "ZeroDenominator",
    "InfeasibleGeometry", "ArccosDomain", "SingularDenominator",
    "LinAlgError", "other", "uncaught.ValueError", "uncaught.other",
)


@dataclass
class Unit:
    """Outcome of one unit: per-trial scores, failures and a digest."""

    attempted: int
    ratios: list = field(default_factory=list)   # final-stage err / PEB
    failures: Counter = field(default_factory=Counter)
    digest: str = ""
    problems: list = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    invol_ctx: int = 0
    trial_s: list = field(default_factory=list)  # run_trial wall times

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


@dataclass
class Pass:
    """Units run back to back; times and resource use are their sums."""

    units: list

    @property
    def wall_s(self) -> float:
        return sum(u.wall_s for u in self.units)

    @property
    def cpu_s(self) -> float:
        return sum(u.cpu_s for u in self.units)

    @property
    def invol_ctx(self) -> int:
        return sum(u.invol_ctx for u in self.units)

    @property
    def attempted(self) -> int:
        return sum(u.attempted for u in self.units)

    @property
    def failed(self) -> int:
        return sum(u.failed for u in self.units)

    @property
    def problems(self) -> list:
        return [msg for u in self.units for msg in u.problems]


def _rusage_totals() -> tuple[float, int]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime,
            me.ru_nivcsw + kids.ru_nivcsw)


def _error_class(error: str) -> str:
    name = error.split(":", 1)[0].strip()
    return name if name in FAILURE_CLASSES else "other"


def _uncaught_class(exc: Exception) -> str:
    name = f"uncaught.{type(exc).__name__}"
    return name if name in FAILURE_CLASSES else "uncaught.other"


class Bench:
    """Runs one workload's units for one seed and checks their outputs."""

    def __init__(self, wl, seed: int, run_dir: Path, hn, nproc: int,
                 trial_times: list):
        self.wl = wl
        self.seed = seed
        self.run_dir = run_dir
        self.hn = hn
        self.nproc = nproc
        self.trial_times = trial_times  # filled by spans.TrialTimer
        self.digests = {}           # unit index -> digest
        self.check = {}             # output check: digests and wall times

    # -- units --------------------------------------------------------
    def run_unit(self, rep: int) -> Unit:
        unit = (self._sweep_unit(rep) if self.wl.kind == "sweep"
                else self._layout_unit(rep))
        if self.digests.setdefault(rep, unit.digest) != unit.digest:
            unit.problems.append(f"unit {rep} gave another output on rerun")
        return unit

    def _sweep(self, cfg, tag: str):
        """Run one sweep; return its report and summary CSV digest."""
        report = self.hn.run_sweep(cfg)
        csv = self.hn.write_summary_csv(
            report, self.run_dir / tag / "sweep_summary.csv")
        return report, hashlib.sha256(csv.read_bytes()).hexdigest()

    def _sweep_unit(self, rep: int) -> Unit:
        unit = Unit(attempted=self.wl.unit_trials())
        try:
            report, unit.digest = self._sweep(
                self.wl.sweep_config(self.seed, rep), f"u{rep}")
        except Exception as exc:   # a crashed sweep loses all its trials
            unit.failures[_uncaught_class(exc)] += unit.attempted
            unit.digest = f"raised {type(exc).__name__}"
            return unit
        for recs in report.records:
            for rec in recs:
                self._score(unit, rec)
        return unit

    def _layout_unit(self, rep: int) -> Unit:
        cfgs = self.wl.layout_configs(self.seed, rep)
        unit = Unit(attempted=len(cfgs))
        h = hashlib.sha256()
        for i, cfg in enumerate(cfgs):
            try:
                rec = self.hn.run_trial(cfg, cfg.powers_dbm[0], 0, i)
            except Exception as exc:   # counted, never re-drawn
                unit.failures[_uncaught_class(exc)] += 1
                h.update(f"{i}:raised {type(exc).__name__}".encode())
                continue
            self._score(unit, rec)
            h.update(f"{i}:{rec.error}:{rec.peb!r}".encode())
            for stage in sorted(rec.stages):
                h.update(stage.encode() + rec.stages[stage].tobytes())
        unit.digest = h.hexdigest()
        return unit

    def _score(self, unit: Unit, rec) -> None:
        if rec.error is not None:
            unit.failures[_error_class(rec.error)] += 1
            return
        stage = self.wl.final_stage()
        try:
            err = math.sqrt(rec.sq_errors[stage]["position"])
        except KeyError:
            unit.problems.append(f"successful trial without stage {stage}")
            return
        if not (math.isfinite(err) and math.isfinite(rec.peb) and rec.peb > 0):
            unit.problems.append(f"error {err} or PEB {rec.peb} not finite")
            return
        unit.ratios.append(err / rec.peb)

    # -- passes -------------------------------------------------------
    def run_pass(self, n_units: int, before=None) -> Pass:
        """Units 0 .. n_units-1, each timed on its own; ``before(rep)``,
        if given, runs untimed before unit ``rep``."""
        units = []
        for rep in range(n_units):
            if before is not None:
                before(rep)
            n0 = len(self.trial_times)
            c0, x0 = _rusage_totals()
            t0 = time.perf_counter()
            unit = self.run_unit(rep)
            unit.wall_s = time.perf_counter() - t0
            c1, x1 = _rusage_totals()
            unit.cpu_s, unit.invol_ctx = c1 - c0, x1 - x0
            unit.trial_s = self.trial_times[n0:]
            units.append(unit)
        return Pass(units=units)

    def cross_check(self) -> list:
        """The last power point of unit 0 must give the same summary CSV
        at one worker and at nproc workers."""
        if self.wl.kind != "sweep":
            return []
        digests = {}
        for workers in (1, self.nproc):
            cfg = self.wl.sweep_config(self.seed, 0, workers=workers,
                                       powers=self.wl.powers[-1:],
                                       n_trials=CHECK_TRIALS)
            t0 = time.perf_counter()
            try:
                _, digests[f"workers={workers}"] = self._sweep(
                    cfg, f"check-w{workers}")
            except Exception as exc:
                return [f"check sweep at workers={workers} raised {exc!r}"]
            self.check[f"wall_s.workers={workers}"] = time.perf_counter() - t0
        self.check.update(digests)
        return check_digests(digests)


def check_digests(digests: dict) -> list:
    """All digests of one sweep must be equal; returns the problems."""
    if len(set(digests.values())) == 1:
        return []
    return [f"sweep_summary.csv digests differ: {digests}"]


def accuracy(p: Pass) -> dict:
    """Accuracy and failure share over the pass's units."""
    ratios = [r for u in p.units for r in u.ratios]
    return {
        "trials": p.attempted,
        "pos_err_over_peb_p50": (statistics.median(ratios) if ratios
                                 else float("nan")),
        "fail_share": p.failed / p.attempted,
        "failures": dict(sum((u.failures for u in p.units), Counter())),
    }


def tail(times: list) -> tuple[float, dict]:
    """Highest nearest-rank percentile with at least ten samples beyond it.

    ``times`` are the run's trials; their number follows from the
    workload and ``--seconds``, so the percentile is the same on every
    run. They are split into ``len(times) // TAIL_WINDOW`` windows of
    consecutive trials and the median over windows is reported, so that one burst of
    contention from outside the process, which slows a few dozen
    consecutive trials, does not set the figure. Returns the value and
    how it was taken.
    """
    if not times:
        return float("nan"), {}
    k = max(1, len(times) // TAIL_WINDOW)
    values, pcts = [], []
    for i in range(k):
        xs = sorted(times[i * len(times) // k:(i + 1) * len(times) // k])
        rank = max(1, len(xs) - 10)
        values.append(xs[rank - 1])
        pcts.append((100 * rank) // len(xs))
    return statistics.median(values), {"percentile": min(pcts),
                                       "windows": k, "samples": len(times)}


def setup_seconds(workload: str, seed: int) -> float:
    """One fresh process: start, import rispos, build the inputs, 'ready'."""
    t0 = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait(timeout=60)
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {line!r}")
    return elapsed


def peak_rss_mb() -> float:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0


def environment(nproc: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")}
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    pyproject = ROOT / "pyproject.toml"
    match = re.search(r'^version\s*=\s*"([^"]+)"',
                      pyproject.read_text(encoding="utf-8"), re.M) \
        if pyproject.is_file() else None
    return {
        "nproc": nproc, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "rispos": match.group(1) if match else "unknown",
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def timing(p: Pass) -> dict:
    """Wall-time figures over the pass's units.

    ``trial_p50_s`` is the median run_trial time of each unit, averaged
    over the units. The machine's speed changes in phases of seconds to
    minutes; a median over the whole run jumps between the fast and the
    slow phase's trial times, while the mean of the units' medians moves
    with the share of time spent in each, as trials_per_s does.
    """
    times = [t for u in p.units for t in u.trial_s]
    medians = [statistics.median(u.trial_s) for u in p.units if u.trial_s]
    tail_s, tail_how = tail(times)
    return {
        "trials_per_s": p.attempted / p.wall_s,
        "trial_p50_s": statistics.fmean(medians) if medians
        else float("nan"),
        "trial_tail_s": tail_s,
        "how": {"trial_tail_s": tail_how,
                "unit_wall_s": [round(u.wall_s, 4) for u in p.units],
                "unit_cpu_s": [round(u.cpu_s, 4) for u in p.units]},
    }


def untraced(bench: Bench, seconds: int):
    """End-to-end metrics, tracing off.

    The output check runs first and warms the process up. The set-up
    probes run between units, spread over the run, so their median is not
    set by one phase of the machine's speed.
    """
    wl = bench.wl
    problems = bench.cross_check()
    n_units = wl.units(seconds)
    probe_at = Counter(i * n_units // SETUP_PROBES
                       for i in range(SETUP_PROBES))
    setups = []

    def probes(rep: int) -> None:
        for _ in range(probe_at[rep]):
            setups.append(setup_seconds(wl.name, bench.seed))

    p = bench.run_pass(n_units, before=probes)
    problems += p.problems
    for rep, unit in enumerate(p.units):
        raised = any(c.startswith("uncaught") for c in unit.failures)
        if not (wl.kind == "sweep" and raised) and \
                len(unit.trial_s) != unit.attempted:
            problems.append(f"unit {rep}: {len(unit.trial_s)} run_trial "
                            f"timings for {unit.attempted} trials")
    problems += bench.run_unit(0).problems   # rerun: digest must match
    fig = accuracy(p)
    tim = timing(p)
    metrics = {
        "trials_per_s": tim["trials_per_s"],
        "trial_p50_s": tim["trial_p50_s"],
        "trial_tail_s": tim["trial_tail_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": 1.0 - fig["fail_share"],
        "pos_err_over_peb_p50": fig["pos_err_over_peb_p50"],
    }
    if wl.stage == "lm" and \
            not metrics["pos_err_over_peb_p50"] < MAX_LM_ERR_OVER_PEB:
        problems.append(f"median LM error is "
                        f"{metrics['pos_err_over_peb_p50']:.3g} x PEB")
    detail = {
        "timing": tim["how"],
        "setup_s_samples": setups, "units": len(p.units),
        "accuracy": fig,
        "harness.cpu_s_per_trial": p.cpu_s / p.attempted,
        "harness.ctx_switches_invol": p.invol_ctx / p.attempted,
        "digests": bench.digests, "check": bench.check,
    }
    out = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    return out, detail, p.attempted, p.failed, problems


def traced(bench: Bench, spans_mod, seconds: int):
    """Per-layer metrics from a traced rerun of an untraced pass's units;
    each pass gets half of ``seconds``."""
    wl = bench.wl
    problems = bench.cross_check()
    base = bench.run_pass(wl.units(seconds / 2))
    problems += base.problems
    tracer = spans_mod.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        units = []
        for rep in range(len(base.units)):
            tracer.unit = rep
            units.append(bench.run_unit(rep))   # rerun: digest must match
        wall = time.perf_counter() - t0
    finally:
        tracer.close()
    problems += [msg for u in units for msg in u.problems]
    n = sum(u.attempted for u in units)
    metrics = tracer.layer_metrics(n)
    metrics["harness.cpu_s_per_trial"] = (base.cpu_s / base.attempted,
                                          "s/trial")
    metrics["harness.ctx_switches_invol"] = (base.invol_ctx / base.attempted,
                                             "1/trial")
    failures = accuracy(base)["failures"]
    for cls in FAILURE_CLASSES:
        metrics[f"harness.failures.{cls}"] = (failures.get(cls, 0), "count")
    metrics["harness.failures.total"] = (sum(failures.values()), "count")
    metrics["bench.trace_overhead_trials_per_s"] = (
        n / wall - base.attempted / base.wall_s, "trials/s")
    metrics["bench.layers_missing"] = (len(tracer.missing), "count")
    spans_path = WORK / f"spans-{wl.name}-{bench.seed}.jsonl"
    tracer.write(str(spans_path))
    detail = {"missing_layers": tracer.missing, "spans": str(spans_path),
              "traced_wall_s": wall, "untraced_wall_s": base.wall_s,
              "check": bench.check}
    return metrics, detail, n, sum(u.failed for u in units), problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rispos" / "__init__.py").is_file():
        print(f"no rispos sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rispos
    from rispos import harness as hn
    if Path(rispos.__file__).resolve().parent != (SRC / "rispos").resolve():
        print(f"rispos imported from {rispos.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    timer = spans.TrialTimer(hn)
    bench = Bench(wl, args.seed, run_dir, hn, len(os.sched_getaffinity(0)),
                  timer.times)
    try:
        if args.trace:
            metrics, detail, attempted, failed, problems = traced(
                bench, spans, args.seconds)
        else:
            metrics, detail, attempted, failed, problems = untraced(
                bench, args.seconds)
    finally:
        timer.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            problems.append(f"metric {name} is missing or NaN")
    detail.update(workload=wl.name, seed=args.seed, trace=args.trace,
                  problems=problems, environment=environment(bench.nproc))
    for name, (value, unit) in metrics.items():
        print(f"{wl.name:8s} {name:44s} {value:14.6g} {unit}")
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
