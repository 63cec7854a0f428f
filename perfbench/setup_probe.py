"""Set-up probe: import rispos, build one workload's first inputs, say 'ready'.

``run.py`` starts this as a fresh process and times it up to the 'ready'
line, which is the set-up a sweep pays before its first trial.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports rispos)

workloads.build(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
