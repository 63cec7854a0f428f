"""Self-test of the benchmark: one short run per workload and mode.

    python3 perfbench/selftest.py [workload ...]

Checks that every run passes its own output checks and prints exactly the
metric names and units ``BENCHMARK.json`` lists, that the same seed twice
gives identical accuracy and failure figures, that the digest check fires
on a deliberately altered CSV digest, and that the benchmark refuses to
run in a directory holding only ``BENCHMARK.json`` and ``perfbench/``.
Each run is given one second, so it does one unit; the whole test takes a
minute or two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def last_json(proc) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check_names(result: dict, spec: list, what: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{what}: metrics {got} != {want}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1


def main(argv: list) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # layouts is runnable but not gated (see layers.json); test it too
    names = argv or [w["name"] for w in spec["workloads"]] + ["layouts"]
    digests = {}
    for wl in names:
        first = run(wl, 0)
        assert first.returncode == 0, first.stderr
        detail, result = last_json(first)
        assert result["correct"], detail["problems"]
        check_names(result, spec["end_to_end"], f"{wl} untraced")
        again = last_json(run(wl, 0))[1]
        for key in ("pos_err_over_peb_p50", "ok_share"):
            assert result["metrics"][key]["value"] == \
                again["metrics"][key]["value"], f"{wl}: {key} not repeatable"
        digests.update({f"{wl}/{k}": v for k, v in detail["check"].items()
                        if k.startswith("workers=")})

        traced = run(wl, 1)
        assert traced.returncode == 0, traced.stderr
        tdetail, tresult = last_json(traced)
        assert tresult["correct"], tdetail["problems"]
        check_names(tresult, spec["per_layer"], f"{wl} traced")
        print(f"ok {wl}: untraced and traced runs, repeatable figures")

    sys.path.insert(0, str(HERE))
    import run as bench_run
    real = next(iter(digests.values()))
    altered = ("0" if real[0] != "0" else "1") + real[1:]
    assert bench_run.check_digests({"a": real, "b": real}) == []
    assert bench_run.check_digests({"a": real, "b": altered}), \
        "an altered CSV digest was not caught"
    print("ok digest check catches an altered CSV digest")

    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(names[0], 0, cwd=bare)
        assert proc.returncode != 0, "ran without the rispos sources"
        assert '"correct"' not in proc.stdout
    print("ok refuses to run without the rispos sources")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
