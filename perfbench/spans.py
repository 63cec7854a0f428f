"""Spans and counters recorded around calls into rispos's public functions.

The benchmark never edits the package: it replaces module attributes with
wrappers while a pass runs and puts the originals back afterwards. A
wrapper is installed on the attribute the caller looks up, because several
functions are imported by name (``coarse_est.maximize_1d`` and
``sage.maximize_1d`` are the same function under two names).

Spans live in memory as ``[name, start, end, parent_index, trial_id]`` and
are written out once the pass ends. A span's self time is its duration
minus the durations of its direct children; the traced program is serial,
so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name or None, counter name or None, result hook).
# Entries without a span only count calls, so their time stays in the
# caller's self time: the searches in refine_aod_mle's, the forward maps in
# refine_position_lm's.
_SPANS = (
    ("harness", "run_sweep", "harness.run_sweep", None, None),
    ("harness", "run_trial", "harness.run_trial", None, None),
    ("harness", "reference_bounds", "harness.reference_bounds",
     "harness.reference_bounds.calls", None),
    ("channel", "make_pilots", "channel.setup", None, None),
    ("channel", "make_phase_schedule", "channel.setup", None, None),
    ("channel", "build_dictionaries", "channel.setup",
     "channel.build_dictionaries.calls", None),
    ("channel", "synthesize_rx", "channel.synthesize_rx", None, None),
    ("coarse_est", "estimate_aod_coarse", "coarse_est.estimate_aod_coarse",
     None, None),
    ("coarse_est", "refine_aod_mle", "coarse_est.refine_aod_mle", None, None),
    ("coarse_est", "estimate_ris_aoa", "coarse_est.estimate_ris_aoa",
     None, None),
    ("coarse_est", "estimate_toa", "coarse_est.estimate_toa", None, None),
    ("sage", "run_sage", "sage.run_sage", None, "sage"),
    ("sage", "coordinate_update_cycle", None,
     "sage.coordinate_update_cycle.calls", None),
    ("sage", "global_log_likelihood", None,
     "sage.global_log_likelihood.calls", None),
    ("positioning", "position_closed_form",
     "positioning.position_closed_form", None, None),
    ("positioning", "refine_position_lm", "positioning.refine_position_lm",
     None, "lm"),
    ("positioning", "forward_map_G", None, "geometry.forward_map_G.calls",
     None),
    ("bounds", "fim_channel", "bounds.fim_channel", "bounds.fim_channel.calls",
     None),
    ("bounds", "position_bounds", "bounds.position_bounds", None, None),
)
_SEARCH_USERS = ("coarse_est", "sage")

SELF_TIME_SPANS = (
    "channel.synthesize_rx", "channel.setup",
    "coarse_est.estimate_aod_coarse", "coarse_est.refine_aod_mle",
    "coarse_est.estimate_ris_aoa", "coarse_est.estimate_toa",
    "sage.run_sage", "positioning.position_closed_form",
    "positioning.refine_position_lm", "bounds.fim_channel",
    "bounds.position_bounds", "harness.run_trial", "harness.run_sweep",
)
PER_TRIAL_COUNTS = (
    "channel.build_dictionaries.calls", "search.maximize_1d.calls",
    "search.maximize_1d.batch_evals", "search.maximize_1d.single_evals",
    "search.maximize_1d.candidates", "sage.coordinate_update_cycle.calls",
    "sage.global_log_likelihood.calls", "geometry.forward_map_G.calls",
    "bounds.fim_channel.calls", "harness.reference_bounds.calls",
)


class TrialTimer:
    """Wall time of every ``harness.run_trial`` call, tracing off."""

    def __init__(self, harness):
        self.times: list[float] = []
        self._harness = harness
        self._orig = harness.run_trial

        @functools.wraps(self._orig)
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return self._orig(*args, **kwargs)
            finally:
                self.times.append(time.perf_counter() - t0)
        harness.run_trial = timed

    def close(self) -> None:
        self._harness.run_trial = self._orig


class Tracer:
    """Installs span and counter wrappers; restores the originals on close."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.trial_id = None
        self.unit = None
        self.sage_gain_rel: list[float] = []
        self.sage_cycles: list[int] = []
        self.lm_iters: list[int] = []
        self.lm_accepted: list[int] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        for mod_name, attr, span, counter, hook in _SPANS:
            self._wrap(mod_name, attr,
                       lambda fn, s=span, c=counter, h=hook:
                       self._make_wrapper(fn, s, c, h))
        for mod_name in _SEARCH_USERS:
            self._wrap(mod_name, "maximize_1d", self._search_wrapper)

    def _wrap(self, mod_name: str, attr: str, make) -> None:
        module = importlib.import_module(f"rispos.{mod_name}")
        orig = getattr(module, attr, None)
        if not callable(orig):
            self.missing.append(f"rispos.{mod_name}.{attr}")
            return
        setattr(module, attr, make(orig))
        self._restore.append((module, attr, orig))

    def close(self) -> None:
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    # -- wrappers -----------------------------------------------------
    def _make_wrapper(self, fn, span_name, counter, hook):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if counter:
                self.counts[counter] += 1
            if span_name is None:
                return fn(*args, **kwargs)
            if span_name == "harness.run_trial":
                self.trial_id = _trial_id(self.unit, args, kwargs)
            span = [span_name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, self.trial_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if span_name == "harness.run_trial":
                    self.trial_id = None
            if hook == "sage":
                self._after_sage(out)
            elif hook == "lm":
                self._after_lm(out)
            return out
        return wrapped

    def _search_wrapper(self, fn):
        counts = self.counts

        def counted(f_batch):
            def inner(xs):
                n = len(xs)
                counts["search.maximize_1d.batch_evals"] += 1
                counts["search.maximize_1d.candidates"] += n
                if n == 1:
                    counts["search.maximize_1d.single_evals"] += 1
                return f_batch(xs)
            return inner

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts["search.maximize_1d.calls"] += 1
            if args:
                args = (counted(args[0]),) + args[1:]
            else:
                kwargs["f_batch"] = counted(kwargs["f_batch"])
            return fn(*args, **kwargs)
        return wrapped

    def _after_sage(self, out) -> None:
        info = out[1]
        hist = list(getattr(info, "loglik_history", []))
        self.sage_cycles.append(int(getattr(info, "n_cycles", 0)))
        if len(hist) >= 2 and hist[0] != 0.0:
            self.sage_gain_rel.append((hist[-1] - hist[0]) / abs(hist[0]))

    def _after_lm(self, out) -> None:
        diag = out[1]
        self.lm_iters.append(int(getattr(diag, "n_iter", 0)))
        self.lm_accepted.append(
            max(len(getattr(diag, "objective_history", [])) - 1, 0))

    # -- reduction ----------------------------------------------------
    def self_times(self) -> dict:
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def layer_metrics(self, n_trials: int) -> dict:
        """Per-trial self times and counts, plus per-call solver figures."""
        per = max(n_trials, 1)
        selfs = self.self_times()
        m = {f"{name}.self_s": (selfs.get(name, 0.0) / per, "s/trial")
             for name in SELF_TIME_SPANS}
        m.update({name: (self.counts[name] / per, "1/trial")
                  for name in PER_TRIAL_COUNTS})
        m["sage.run_sage.cycles"] = (_mean(self.sage_cycles), "count")
        m["sage.loglik_gain_rel"] = (_mean(self.sage_gain_rel), "ratio")
        m["positioning.refine_position_lm.iters"] = (_mean(self.lm_iters),
                                                     "count")
        m["positioning.refine_position_lm.accepted"] = (
            _mean(self.lm_accepted), "count")
        fwd = self.counts["geometry.forward_map_G.calls"]
        m["positioning.lm.accept_ratio"] = (
            sum(self.lm_accepted) / fwd if fwd else 0.0, "ratio")
        return m

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent, trial in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "trial": trial}) + "\n")


def _trial_id(unit, args, kwargs):
    power_idx = kwargs.get("power_idx", args[2] if len(args) > 2 else None)
    trial_idx = kwargs.get("trial_idx", args[3] if len(args) > 3 else None)
    return [unit, power_idx, trial_idx]


def _mean(xs) -> float:
    return float(sum(xs) / len(xs)) if xs else 0.0
