"""Tests of the benchmark itself: smoke runs, metric names, failure
accounting, seeded inputs and repeatable counts.

    python3 -m pytest -q bench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_run_emits_every_metric_with_its_unit(name, trace):
    code, out, err = bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", trace)
    assert code == 0, err
    result = json.loads(out.splitlines()[-1])
    assert result.keys() == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] is True
    want = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_spec_matches_the_code():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER


def test_injected_wrong_result_is_counted(monkeypatch):
    wl = workloads.Cascade(7, pool=8)
    monkeypatch.setattr(workloads.analysis, "c_entropy", lambda sys_: 1.0)
    tally = run.measure(wl, 0.01, speed.ScaledClock())
    assert tally.attempted == len(wl) and tally.failed == tally.attempted
    assert tally.reasons["c_entropy: off"] == tally.attempted


def test_injected_exception_is_counted(monkeypatch):
    wl = workloads.Foster(7, pool=8)

    def broken(spec):
        raise workloads.ratfun.PoleError("stub")

    monkeypatch.setattr(workloads.circuit, "classify_foster", broken)
    tally = run.measure(wl, 0.01, speed.ScaledClock())
    assert tally.attempted == len(wl) and tally.failed == tally.attempted
    assert tally.reasons["classify_foster: PoleError"] == tally.attempted


def test_failures_count_inputs_not_repeats():
    wl = workloads.Cascade(7, pool=8)
    short = run.measure(wl, 0.0, speed.ScaledClock())
    long = run.measure(wl, 1.0, speed.ScaledClock())
    assert len(long.lat) > len(short.lat) == len(wl)
    assert (long.attempted, long.failed, long.reasons) == (short.attempted, short.failed, short.reasons)
    assert long.attempted == len(wl) and not long.changed


def test_a_repeat_with_another_verdict_is_recorded():
    tally = run.Tally()
    tally.add(0, 0.0, 1e-3, [])
    tally.add(0, 1.0, 1e-3, ["c_entropy: off"])
    assert (tally.attempted, tally.failed) == (1, 0)
    assert sum(tally.changed.values()) == 1


def test_same_seed_same_inputs(tmp_path):
    a, b, c = (workloads.Cascade(s, pool=16) for s in (3, 3, 4))
    assert a.chains == b.chains and a.points == b.points
    assert a.chains != c.chains
    assert workloads.Foster(3, pool=16).specs == workloads.Foster(3, pool=16).specs
    assert workloads.Oracle(3).base == workloads.Oracle(3).base != workloads.Oracle(4).base
    for name in ("chain.json", "foster.json"):
        workloads.Cli(3, tmp_path / "x")
        workloads.Cli(3, tmp_path / "y")
        assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()


def test_size_mix_is_stratified():
    ks = [len(c) for c in workloads.Cascade(9, pool=64).chains]
    assert min(ks[:8]) < 8 and max(ks[:8]) > 100
    ms = sorted(len(s[1]) for s in workloads.Foster(9, pool=256).specs)
    assert ms[::32] == [1, 4, 7, 10, 13, 16, 19, 22]


def test_computed_counts_repeat_for_a_seed():
    counted = [k for k, unit in tracing.PER_LAYER
               if unit in ("count", "flop", "MB") and not k.startswith("cli.")]
    runs = []
    for _ in range(2):
        wl = workloads.Cascade(11, pool=16)
        wl.window = 8
        metrics, _ = run.trace_metrics(wl, 0.01, run.Tally())
        runs.append({k: metrics[k] for k in counted})
    assert runs[0] == runs[1]
    assert runs[0]["coupling.couple.calls"] > 0 and runs[0]["colligation.flops_computed"] > 0


def test_no_package_means_no_result(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for f in BENCH.glob("*.py"):
        (copy / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cascade", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
