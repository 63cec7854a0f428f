"""The benchmark's per-layer view: every traced span and counter is reached.

``perfbench/spans.py`` wraps the package's functions by module attribute.
A renamed function, or a caller that bypasses the module attribute,
leaves its span or counter at zero without any error; this test fails
instead. The wrappers and counters of the deleted full-search code (the
1-D search, the coordinate cycle and the global log-likelihood) are
expected to be missing, and only they. A trial calls ``fim_channel`` only
when SAGE does not converge (the bounds at the truth read the setup's
unit-gain Gram), so the traced sweep runs with the step cap that SAGE
shares with the AOD refinement and the LM fit cut to one, on the -10 dBm
trials of master seed 5 up to trial 2. A sweep builds its dictionaries
only where no earlier sweep built its scenario's, so the traced sweep
starts from an empty scenario cache.
"""

import importlib
from pathlib import Path

from rispos import _damping as dm
from rispos import harness as hn

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

MISSING = ["rispos.sage.coordinate_update_cycle",
           "rispos.sage.global_log_likelihood",
           "rispos.coarse_est.maximize_1d", "rispos.sage.maximize_1d"]
UNCOUNTED = {"search.maximize_1d.calls", "search.maximize_1d.batch_evals",
             "search.maximize_1d.single_evals",
             "search.maximize_1d.candidates",
             "sage.coordinate_update_cycle.calls",
             "sage.global_log_likelihood.calls"}


def test_traced_sweep_reaches_every_span_and_counter(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(dm, "MAX_STEPS", 1)
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = hn.run_sweep(hn.ExperimentConfig(
            master_seed=5, n_trials=3, powers_dbm=[-10.0]))
    finally:
        tracer.close()
    assert report.records[0][0].error is None
    assert not report.records[0][2].flags["sage_converged"]
    assert tracer.missing == MISSING
    traced = {span[0] for span in tracer.spans}
    assert [n for n in spans.SELF_TIME_SPANS if n not in traced] == []
    assert [n for n in spans.PER_TRIAL_COUNTS
            if (tracer.counts[n] > 0) is (n in UNCOUNTED)] == []
