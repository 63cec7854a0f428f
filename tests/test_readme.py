"""The README's documented stage calls run as written.

The stage-call block under "Library entry points" is the API a reader
copies; a signature change that forgets it fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
PRELUDE = ("from rispos import channel, coarse_est, sage, positioning, "
           "bounds, harness\n"
           "exp = harness.ExperimentConfig()\n")


def test_readme_stage_calls_run():
    text = README.read_text()
    start = text.index("Every stage takes the observation")
    block = re.search(r"```python\n(.*?)```", text[start:], re.S).group(1)
    namespace = {}
    exec(compile(PRELUDE + block, str(README), "exec"), namespace)
    n_params = 6 * namespace["setup"].n_paths
    assert namespace["fim"].shape == (n_params, n_params)
