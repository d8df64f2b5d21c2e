"""Self-tests of the benchmark's statistics and of BENCHMARK.json.

    python3 perfbench/test_stats.py      (or: python3 -m pytest perfbench)
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from stats import (  # noqa: E402
    MIN_BEYOND_TAIL,
    OpCount,
    quartiles,
    relative_spread,
    tail_percentile,
    valid_name,
    valid_unit,
)


def test_tail_needs_ten_samples_beyond():
    assert tail_percentile(range(1000), 99.0) == 989  # 10 lie beyond
    assert tail_percentile(range(999), 99.0) is None  # only 9 would
    assert tail_percentile(range(100), 90.0) == 89
    assert tail_percentile(range(99), 90.0) is None
    assert tail_percentile([], 50.0) is None
    assert tail_percentile(range(20), 50.0) == 9
    assert tail_percentile(range(19), 50.0) is None


def test_tail_is_nearest_rank_and_order_free():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] * 4  # 20 samples
    assert tail_percentile(samples, 50.0) == 3.0
    shuffled = sorted(range(2000), key=lambda i: (i * 7919) % 2000)
    assert tail_percentile(shuffled, 99.0) == 1979
    beyond = [x for x in range(2000) if x > 1979]
    assert len(beyond) >= MIN_BEYOND_TAIL


def test_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, med, q3 = quartiles(values)
    assert relative_spread(values) == (q3 - q1) / med
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_failure_counting():
    ops = OpCount()
    ops.ok(9)
    ops.fail("lift curve")
    ops.ok()
    ops.fail("query shed")
    assert (ops.attempted, ops.failed) == (12, 2)
    assert ops.reasons == ["lift curve", "query shed"]


def test_name_and_unit_syntax():
    for good in ("setup_s", "kernels.scatter_add.calls", "9lives", "a-b"):
        assert valid_name(good), good
    for bad in ("", "_x", ".x", "a b", "x" * 65, "a/b", "é"):
        assert not valid_name(bad), bad
    for good in ("ms", "s", "1/s", "count", "%", "s/cycle", "GB/s"):
        assert valid_unit(good), good
    for bad in ("", "x" * 17, "m s", "MB*s"):
        assert not valid_unit(bad), bad


def test_benchmark_json_matches_the_runner():
    from traced import PER_LAYER

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert valid_name(metric["name"]) and valid_unit(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    for metric in bench["end_to_end"]:
        assert 0.0 < metric["bound"] <= 0.25
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in bench["end_to_end"]
    )
    assert [m["name"] for m in bench["per_layer"]] == list(PER_LAYER)
    from workloads import WORKLOADS, Outcome

    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    out = Outcome(setup_s=[1.0], wall_s=1.0, point_cycles=1.0, cases=1,
                  request_ms=[1.0], drops=[1.0])
    assert list(out.end_to_end()) == [m["name"] for m in bench["end_to_end"]]


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok  {test.__name__}")
    print(f"{len(tests)} self-tests passed")
