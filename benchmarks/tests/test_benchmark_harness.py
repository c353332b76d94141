"""Tests of the benchmark itself (run: python3 -m pytest -q benchmarks/tests).

Each workload's traced pass takes seconds to tens of seconds, so the
whole file takes a few minutes.
"""

import json
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.import_library()

import workloads  # noqa: E402
from hostspeed import SpeedSampler  # noqa: E402
from spans import Tracer  # noqa: E402

SEED = 3
# Self times must add up to the traced wall: the spans nest, so only
# float rounding and the root wrappers' own calls separate the two.
SELF_TIME_TOLERANCE = 0.01


def test_benchmark_json_matches_metric_table():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        assert json.load(fh) == run.config()


def _traced(workload):
    steps = workloads.build(workload, SEED)
    tracer, _, traced, attempted, failed = run.traced_pass(steps)
    assert failed == 0 and attempted > 0
    assert tracer.self_times()[0]["root"] == len(steps)
    return tracer, traced


def _exact(tracer):
    calls, _ = tracer.self_times()
    found = dict(tracer.counts)
    found.update((name + ".calls", n) for name, n in calls.items())
    return {key: found.get(key, 0) for key in run.EXACT_COUNTERS}


@pytest.mark.parametrize("workload", list(run.WORKLOAD_WHY))
def test_self_times_sum_to_wall_and_counters_repeat(workload):
    first, wall = _traced(workload)
    calls, self_s = first.self_times()
    assert min(self_s.values()) > -1e-6
    assert sum(self_s.values()) == pytest.approx(wall,
                                                 rel=SELF_TIME_TOLERANCE)

    second, _ = _traced(workload)
    assert _exact(second) == _exact(first)
    assert any(_exact(first).values())
    assert second.counts == first.counts
    assert second.self_times()[0] == calls


def test_tracer_restores_the_library():
    import transvect
    from transvect import cli, matrices, orbits, rewrite
    before = (matrices.SquareMatrix.__mul__, orbits.orbit_partition,
              cli.orbit_partition, rewrite.conjugate_first_rowcol,
              transvect.conjugate_first_rowcol, cli.run)
    tracer = Tracer()
    tracer.install()
    assert orbits.orbit_partition is not before[1]
    assert cli.orbit_partition is orbits.orbit_partition
    tracer.remove()
    after = (matrices.SquareMatrix.__mul__, orbits.orbit_partition,
             cli.orbit_partition, rewrite.conjugate_first_rowcol,
             transvect.conjugate_first_rowcol, cli.run)
    assert after == before


def test_frozen_value_mismatch_counts_as_failure():
    step = workloads._cli_step(
        ["splice-demo", "--ring", "zmod:25", "--k", "4", "--seed", "0"],
        workloads._splice)
    assert step() == (1, 1)


def test_speed_sampler_times_its_block_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler(period_s=0.005) as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 5
    assert sampler.busy_s == pytest.approx(sum(sampler.samples))
    assert 0 < sampler.own_s < sampler.elapsed_s
    assert sampler.corrected_s() == pytest.approx(
        sampler.own_s * sampler.speed())
