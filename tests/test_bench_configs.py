"""The benchmark's workload configs pass ``verify`` as the benchmark runs them.

``bench/run.py`` writes each workload's config with its seed, the ``BAND``
half-width as ``delta`` and ``epsilon`` and a report path, then runs
``meso-spectra verify`` on it.  A run that exits non-zero or records a
failed trial makes the benchmark refuse its outputs; this guard sees it
from the tier-1 suite, without editing or running the bench.  Every workload
must also take its structured solve throughout, never the dense fallback,
and the detector workload must locate every outlier it evaluates.
"""

import importlib.util
import json
import logging
from pathlib import Path

import pytest

from meso_spectra import cli

_spec = importlib.util.spec_from_file_location(
    "bench_run", Path(__file__).resolve().parents[1] / "bench" / "run.py")
_run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_run)

SEED = 11


@pytest.mark.parametrize("name", sorted(_run.WORKLOADS))
def test_workload_config_verifies(name, tmp_path, caplog, capsys):
    caplog.set_level(logging.DEBUG, logger="meso_spectra")
    report = tmp_path / "report.json"
    doc = dict(_run.WORKLOADS[name], seed=SEED, report_path=str(report),
               delta=_run.BAND, epsilon=_run.BAND)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["verify", str(config)]) == 0
    result = json.loads(report.read_text())
    records = result["records"]
    assert len(records) and not any(r["failed"] for r in records)
    if name == "orth-detect":
        # The detector-delta gate bounds only located roots; every evaluated
        # outlier must be one of them, so a dropped rank shows here.
        aggregates = result["aggregates"]
        assert aggregates["detector_located"] == aggregates["outliers_evaluated"] > 0
    assert not [r for r in caplog.records
                if r.getMessage().startswith("dense eigensolve fallback")]
