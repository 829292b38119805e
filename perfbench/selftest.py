"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json declares exactly the metrics the benchmark
emits, that every workload prints each declared metric with its unit,
that one seed regenerates byte-identical inputs, that an injected wrong
label is counted as a failed operation, that no run leaves a process
running, and that without the program's source the benchmark exits
non-zero without a result.  Exit status 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import common
import gen
import loadgen
import serve

HERE = Path(__file__).resolve().parent
SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "1", "--scale", "0.1"]


def bench(workload: str, trace: int, *extra: str, cwd: Path = common.ROOT):
    """One run at tiny scale; asserts that it leaves no process behind
    (this process is a subreaper, so whatever the run leaves, running or
    ended but not waited for, becomes a child of it)."""
    out = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--trace", str(trace), *TINY, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    left = common.children()
    common.reap_children()
    assert not left, (workload, trace, "processes left running", left)
    lines = out.stdout.strip().splitlines()
    return out.returncode, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


def check_spec() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(SPEC)
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == common.END_TO_END, declared
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == common.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == ["batch", "stream"]


def check_metrics(workload: str) -> None:
    for trace, declared in ((0, common.END_TO_END), (1, common.PER_LAYER)):
        code, result = bench(workload, trace)
        assert code == 0 and result is not None, (workload, trace, code)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, (workload, trace, result)
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == declared, (workload, trace, sorted(set(got) ^ set(declared)))
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values()), result


def check_wrong_label_counted(workload: str) -> None:
    code, result = bench(workload, 0, "--inject-wrong-label")
    assert code == 0 and result is not None
    assert result["failed"] >= 1 and not result["correct"], (workload, result)


def check_inputs_repeat() -> None:
    def inputs(seed: int) -> bytes:
        train, held = serve._data(seed, 0.05)
        sched = loadgen.poisson_schedule(
            gen.rng(seed, gen.SERVE, 0), serve.RATE, 1.0, serve._make_rows(held))
        parts = [gen.blobs(seed, 500), gen.blob_queries(seed, 4, 64), train, held,
                 gen.drift(seed, 1000, 50)]
        return b"".join(p.tobytes() for p in parts) + b"".join(r.body for r in sched)

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def check_refuses_without_source() -> None:
    bare = common.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(common.ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        code, result = bench("batch", 0, cwd=bare)
        assert code != 0 and result is None, (code, result)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    common.become_subreaper()
    checks = [("spec", check_spec), ("inputs repeat", check_inputs_repeat),
              ("refuses without source", check_refuses_without_source)]
    for w in ("batch", "serve", "stream"):
        checks.append((f"{w}: metrics", lambda w=w: check_metrics(w)))
        checks.append((f"{w}: wrong label counted", lambda w=w: check_wrong_label_counted(w)))
    failed = 0
    for name, fn in checks:
        try:
            fn()
            print(f"ok    {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL  {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
