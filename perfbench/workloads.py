"""The benchmark's workloads: seeded inputs for rispos, as ExperimentConfigs.

A workload is run in units. A unit is one ``run_sweep`` call (sweep
workloads) or a batch of ``run_trial`` calls on random layouts. Unit
``rep`` of seed ``seed`` always has the same inputs, whatever the speed of
the machine. How many units a run does follows from its ``--seconds``
alone (``Workload.units``), never from the speed of the machine, so every
run with the same seed and seconds does the same trials and gives the
same accuracy and failure figures.

Why each workload exists (also in ``layers.json``):

- ``ref_lm``: the paper's sweep, serial; AOD likelihood search and SAGE
  do almost all of its work.
- ``coarse``: stage ``coarse``; short trials where per-trial setup,
  synthesis, DCS-SOMP and the bounds carry the load.
- ``layouts``: random geometries at 20 dBm; the only workload whose
  geometry varies, so LM paths, closed-form branches and failures move.
  Runnable, but not in ``BENCHMARK.json``: its accuracy figure varies
  more from seed to seed than a bound may allow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rispos import harness as hn

POWERS_DBM = [-10.0, 0.0, 10.0, 20.0]
LAYOUT_POWER_DBM = 20.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # "sweep" or "layouts"
    stage: str
    per_unit: int            # trials per power (sweep) or layouts (layouts)
    unit_s: float            # nominal wall time of one unit, 2-core VM

    @property
    def powers(self) -> list:
        return list(POWERS_DBM)

    def final_stage(self) -> str:
        return "lm" if self.stage == "lm" else "closed_form"

    def unit_seed(self, seed: int, rep: int) -> int:
        return int(np.random.SeedSequence((seed, rep)).generate_state(1)[0])

    def sweep_config(self, seed: int, rep: int, workers: int = 1,
                     powers: list = POWERS_DBM,
                     n_trials: int | None = None) -> hn.ExperimentConfig:
        return hn.ExperimentConfig(
            powers_dbm=list(powers), n_trials=n_trials or self.per_unit,
            master_seed=self.unit_seed(seed, rep), stage=self.stage,
            workers=workers)

    def layout_configs(self, seed: int, rep: int) -> list:
        """Layouts of unit ``rep``: plain seeded draws from the family."""
        rng = np.random.default_rng(np.random.SeedSequence((seed, rep)))
        master = self.unit_seed(seed, rep)
        return [layout_config(sample_layout(rng), master)
                for _ in range(self.per_unit)]

    def units(self, seconds: float) -> int:
        """Units a run of ``seconds`` does: as many as take about that
        long at the nominal speed."""
        return max(1, round(seconds / self.unit_s))

    def unit_trials(self) -> int:
        if self.kind == "sweep":
            return self.per_unit * len(POWERS_DBM)
        return self.per_unit


# ref_lm runs one trial per power per sweep, so a run draws many pilots
# and phase schedules rather than a few.
WORKLOADS = {
    "ref_lm": Workload("ref_lm", "sweep", "lm", 1, 2.0),
    "coarse": Workload("coarse", "sweep", "coarse", 10, 1.3),
    "layouts": Workload("layouts", "layouts", "lm", 4, 2.0),
}


def sample_layout(rng: np.random.Generator) -> dict:
    """The test suite's ``sample_layout`` family: the same ``rng.uniform``
    calls in the same order, so a generator gives the same layout.

    The MS stays below the RIS in the far quadrant and the scatterer sits
    between them; the rotation angle stays on the branch the closed form
    resolves (alpha + psi_in,0 < 2 pi). BS, RIS, carrier and arrays are
    the reference ones, which ``ExperimentConfig`` defaults to.
    """
    ris = np.array([-6.0, 8.0, 20.0])
    ms = np.array([rng.uniform(8.0, 40.0), rng.uniform(16.0, 45.0),
                   rng.uniform(0.5, 4.0)])
    scat = np.array([rng.uniform(-2.0, 14.0), rng.uniform(2.0, 7.5),
                     rng.uniform(0.5, 8.0)])
    beta = np.arctan2(ris[1] - ms[1], ris[0] - ms[0]) % (2 * np.pi)
    alpha = rng.uniform(0.0, min(np.pi, 2 * np.pi - beta) - 0.02)
    return {"ms": ms.tolist(), "alpha": float(alpha),
            "scatterers": [scat.tolist()]}


def layout_config(layout: dict, master_seed: int) -> hn.ExperimentConfig:
    return hn.ExperimentConfig(
        ms=layout["ms"], alpha_deg=float(np.rad2deg(layout["alpha"])),
        scatterers=layout["scatterers"], powers_dbm=[LAYOUT_POWER_DBM],
        n_trials=1, master_seed=master_seed, stage="lm", workers=1)


def build(name: str, seed: int) -> list:
    """Inputs of the first unit: what a run sets up before its first trial."""
    wl = WORKLOADS[name]
    if wl.kind == "sweep":
        cfg = wl.sweep_config(seed, 0)
        cfg.geometry()
        return [cfg]
    cfgs = wl.layout_configs(seed, 0)
    for cfg in cfgs:
        cfg.geometry()
    return cfgs

