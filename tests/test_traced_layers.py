"""The benchmark's per-layer view: every traced span and counter is reached.

``perfbench/spans.py`` wraps the package's functions by module attribute.
A renamed function, or a caller that bypasses the module attribute,
leaves its span or counter at zero without any error; this test fails
instead. A trial calls ``fim_channel`` only when SAGE's Fisher scoring
never converges (the bounds at the truth read the setup's unit-gain
Gram), and reaches the coordinate cycles only when scoring fails from
the coarse point, so the traced sweep runs the -10 dBm trials of master
seed 5 up to trial 2, on which scoring never converges.
"""

import importlib
from pathlib import Path

from rispos import harness as hn

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_sweep_reaches_every_span_and_counter(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = hn.run_sweep(hn.ExperimentConfig(
            master_seed=5, n_trials=3, powers_dbm=[-10.0]))
    finally:
        tracer.close()
    assert report.records[0][0].error is None
    assert report.records[0][2].flags["sage_cycles"] > 0
    assert tracer.missing == []
    traced = {span[0] for span in tracer.spans}
    assert [n for n in spans.SELF_TIME_SPANS if n not in traced] == []
    assert [n for n in spans.PER_TRIAL_COUNTS if tracer.counts[n] <= 0] == []
