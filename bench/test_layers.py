"""Layer-coverage self-test for the benchmark.

A short traced verify run of each workload must reach every layer the
workload map (README.md) says does its work, and no layer it says the
workload bypasses.  A refactor that rebinds an import the tracer wraps shows
here as a layer with zero calls, before it silently zeroes a metric.

Run from the repository root:

    python3 -m pytest -q bench/test_layers.py
"""

import json
from pathlib import Path

import pytest

import run

run.prepare()

from tracing import LAYERS, SITES, Tracer  # noqa: E402  (needs src on the path)

COMMON = {
    "config.load_config",
    "harness.run_experiment",
    "ensembles.sample_ensemble",
    "predictor.predict",
    "reports.aggregate",
    "reports.write_report",
    "spectral_core.check_separation",
}

REACHED = {
    "wigner-location": COMMON | {
        "ensembles.sample_wigner",
        "ensembles.perturb_additive",
        "harness.eigvalsh_dense",
    },
    "orth-detect": COMMON | {
        "ensembles.sample_haar_frame",
        "ensembles.perturb_additive",
        "harness.eigvalsh_dense",
        "master_equation.locate_outliers",
        "master_equation.counting_function",
        "transforms.invert_stieltjes",
    },
    "orth-mult-eigenvector": COMMON | {
        "ensembles.sample_haar_frame",
        "ensembles.perturb_multiplicative",
        "ensembles.eigensolve",
        "transforms.invert_t_transform",
    },
}

SEED = 11


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_layers_reached_and_bypassed(name):
    workload = run.Workload(name, SEED)
    tracer = Tracer()
    with tracer.installed():
        code, _ = workload.verify()
    assert code == 0
    calls, busy = tracer.layer_totals()
    assert {layer for layer in LAYERS if calls[layer] > 0} == REACHED[name]
    if "harness.eigvalsh_dense" in REACHED[name]:
        # One dense solve per trial; the detector's m x m solves are its own.
        assert calls["harness.eigvalsh_dense"] == workload.trials
    # Self times partition the traced wall time of the top-level spans.
    top = sum(end - start for _, start, end, _, parent in tracer.spans if parent < 0)
    assert sum(busy.values()) == pytest.approx(top, rel=1e-9)


def test_tracer_restores_call_sites():
    before = [getattr(owner, attr) for owner, attr, _, _ in SITES]
    with Tracer().installed():
        assert [getattr(owner, attr) for owner, attr, _, _ in SITES] != before
    assert [getattr(owner, attr) for owner, attr, _, _ in SITES] == before


def test_benchmark_json_matches_runner():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
