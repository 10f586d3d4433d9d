"""The perf-trajectory summary records the machine it ran on."""

import os

from repro.benchrunner import summarize


def test_summary_records_env():
    env = summarize({"benchmarks": []}, "abc1234")["env"]
    assert env["cpu_count"] == os.cpu_count()
    assert env["affinity_cpus"] is None or 1 <= env["affinity_cpus"] <= (
        os.cpu_count() or env["affinity_cpus"])
    assert env["openblas_num_threads"] == os.environ.get(
        "OPENBLAS_NUM_THREADS")
    assert env["numpy"] and env["python"].count(".") == 2
