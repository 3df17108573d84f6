"""Tests of the benchmark's own helpers (NumPy only, no program import)::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import calib
import catalog
import stats
import workloads
from layers import LayerClock
from workloads import Pass, within_f32

HERE = Path(__file__).resolve().parent


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def _verify_like(clock: FakeClock) -> SimpleNamespace:
    """verify -> tuner, lowering, functional: serve's verify recompute."""
    prog = SimpleNamespace()

    def tune():
        clock.spend(0.25)

    def lowering():
        clock.spend(2.0)

    def functional():
        clock.spend(3.0)

    def verify():
        clock.spend(1.0)
        prog.tune()
        prog.lowering()
        prog.functional()
        clock.spend(0.5)
        return "bits"

    prog.tune, prog.lowering = tune, lowering
    prog.functional, prog.verify = functional, verify
    return prog


def _targets(prog):
    return [
        (prog, "verify", "serve.verify", None),
        (prog, "tune", "core.tuner", None),
        (prog, "lowering", "core.lowering", None),
        (prog, "functional", "executor.functional", None),
    ]


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    prog = _verify_like(clock)
    layers = LayerClock(clock)
    with layers.patched(_targets(prog)):
        assert prog.verify() == "bits"
        prog.lowering()  # the same layer called outside verify
    assert layers.self_s == {
        "serve.verify": 1.5,
        "core.tuner": 0.25,
        "core.lowering": 4.0,
        "executor.functional": 3.0,
    }
    assert layers.calls == {
        "serve.verify": 1,
        "core.tuner": 1,
        "core.lowering": 2,
        "executor.functional": 1,
    }
    # self times partition the wall: no second is counted twice
    assert sum(layers.self_s.values()) == clock.now


def test_same_layer_nesting_and_errors_keep_the_books():
    clock = FakeClock()
    prog = SimpleNamespace()

    def outer():
        clock.spend(1.0)
        prog.inner()

    def inner():
        clock.spend(2.0)
        raise RuntimeError("boom")

    prog.outer, prog.inner = outer, inner
    layers = LayerClock(clock)
    targets = [
        (prog, "outer", "serve.server", None),
        (prog, "inner", "serve.server", None),
    ]
    with layers.patched(targets):
        with pytest.raises(RuntimeError):
            prog.outer()
    assert layers.self_s["serve.server"] == 3.0
    assert layers.calls["serve.server"] == 2
    assert not layers._open


def test_wrappers_only_observe_and_are_restored():
    clock = FakeClock()
    prog = _verify_like(clock)
    originals = dict(vars(prog))
    layers = LayerClock(clock)

    def count(tally, result):
        tally[result] += 1

    with pytest.raises(KeyError):
        with layers.patched([(prog, "verify", "serve.verify", count)]):
            assert prog.verify() == "bits"
            raise KeyError("leave the block by an error")
    assert vars(prog) == originals
    assert layers.tally == {"bits": 1}


def test_percentile_rule_needs_ten_samples_beyond():
    assert stats.beyond(1200, 0.99) == 12
    assert stats.tail_ok(1200, 0.99)
    assert stats.tail_ok(1000, 0.99)
    assert not stats.tail_ok(999, 0.99)
    # a nine-point grid supports no tail percentile at all
    assert not stats.tail_ok(9, 0.5)


def test_quantile_is_nearest_rank():
    values = list(range(1200, 0, -1))
    p99 = stats.quantile(values, 0.99)
    assert p99 == 1188
    assert sum(v > p99 for v in values) == stats.beyond(1200, 0.99)
    assert stats.quantile(values, 0.5) == 600
    assert stats.quantile([], 0.5) == 0.0


def test_tail_segments_average_the_requests_at_or_above_the_cut():
    paths = [(float(lat), {"queue": float(lat), "gemm": 1.0})
             for lat in range(1, 1201)]
    tail = stats.tail_segments(paths, 0.99)
    # nearest-rank p99 of 1..1200 is 1188: the tail is 1188..1200
    assert tail == {"queue": sum(range(1188, 1201)) / 13, "gemm": 1.0}
    assert stats.tail_segments([], 0.99) == {}


def test_run_value_is_the_median_over_passes():
    # one burst on a shared machine does not decide a run
    assert stats.run_value([150.0, 242.0, 200.0]) == 200.0
    assert stats.run_value([200.0, 201.0, 90.0, 199.0, 5000.0]) == 200.0
    assert stats.run_value(iter([3.0])) == 3.0
    with pytest.raises(ValueError):
        stats.run_value([])


def test_spread_is_interquartile_distance_over_median():
    values = [float(v) for v in range(1, 11)]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 5.5)
    assert stats.spread([7.0] * 10) == 0.0


def test_output_check_accepts_any_summation_order_only():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((64, 1024), dtype=np.float32)
    b = rng.standard_normal((1024, 16), dtype=np.float32)
    c0 = rng.standard_normal((64, 16), dtype=np.float32)
    blocked = c0.copy()
    for hi in range(1024, 0, -128):  # K blocks in reverse: another rounding
        blocked += a[:, hi - 128:hi] @ b[hi - 128:hi]
    assert within_f32(blocked, c0, a, b)
    wrong = blocked.copy()
    wrong[5, 7] += 1.0
    assert not within_f32(wrong, c0, a, b)
    wrong[5, 7] = np.nan
    assert not within_f32(wrong, c0, a, b)
    assert not within_f32(c0, c0, a, b)  # nothing computed


def test_calibrated_rate_credits_a_slow_machine():
    one = Pass(wall_s=6.0, ops=1200, cal_rounds=8,
               cal_s=8 * calib.NOMINAL_S * 1.25)
    # 200 requests/s while the calibration loop ran 25% slow
    assert one.ops_per_s == pytest.approx(250.0)
    assert calib.slowdown(3 * calib.NOMINAL_S, 3) == pytest.approx(1.0)
    assert calib.loop_s() > 0


def test_grid_seed_zero_is_the_paper_grid_and_seeds_repeat():
    assert workloads.grid_shapes(0) == [
        (m, n, k)
        for m, k in ((8192, 512), (64, 16384), (2048, 2048))
        for n in (16, 32, 64)
    ]
    for seed in range(1, 20):
        shapes = workloads.grid_shapes(seed)
        assert shapes == workloads.grid_shapes(seed)
        for (m, n, k), (m0, n0, k0) in zip(shapes, workloads.grid_shapes(0)):
            assert n == n0 and m % 16 == 0 and k % 16 == 0
            assert abs(m - m0) <= m0 / 128 and abs(k - k0) <= k0 / 128


def test_run_refuses_without_a_program(tmp_path):
    # the benchmark's files alone, with no src/repro beside them
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gemm_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_matches_the_catalog():
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        pytest.skip("BENCHMARK.json not written yet")
    spec = json.loads(path.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (name, m.unit, m.better) for name, m in catalog.END_TO_END.items()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, m.unit, m.better) for name, m in catalog.PER_LAYER.items()
    ]
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert spec["command"] == ["python3", "perfbench/run.py"]
    # every per-layer prediction names a real end-to-end metric/workload
    for m in catalog.PER_LAYER.values():
        assert m.moves in {*catalog.END_TO_END, "slo_miss_frac", "none"}
        assert set(m.on) <= set(catalog.WORKLOADS)
