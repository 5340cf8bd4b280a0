"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root (it is not part of the tier-1 suite):

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import refclock
import run

TINY = run.Sizes(
    c7_per_role=200,
    c7_epochs=3,
    n_trees=30,
    noisy_per_role=60,
    embedding_triples=60,
    embedding_epochs=1,
    stream_batches=20,
    setup_probes=1,
)
SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_workload_runs_clean(workload, trace):
    result, meta = run.run_workload(workload, seed=3, seconds=0.0, trace=trace, sizes=TINY)
    assert result["correct"] and result["failed"] == 0, meta["errors"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert emitted == declared


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_generator_is_byte_deterministic_per_seed():
    def inputs(seed):
        return (
            gen.to_jsonl(gen.labeled(seed, 20))
            + gen.to_jsonl(gen.noisy(seed, 20, 0.2))
            + gen.to_jsonl(gen.stream(seed, 200)[0])
        )

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_tracer_reports_a_missing_function_as_absent():
    code = (
        "import rolerank.forest, tracing\n"
        "del rolerank.forest.predict_proba\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "print(tracer.absent)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(run.SRC), str(run.HERE)]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "['forest.predict_proba']"


def test_reference_clock_scales_by_kernel_speed_and_drops_sampling_time():
    # kernel at half the reference speed: each wall second is half a reference second
    slow = [2 * refclock.KERNEL_REF_S] * 4
    assert refclock.reference_s(10.0 + sum(slow), slow) == pytest.approx(5.0)
    assert refclock.scale([refclock.KERNEL_REF_S]) == pytest.approx(1.0)
    assert refclock.reference_series([1.0, 2.0], slow[:3]) == pytest.approx([0.5, 1.0])
