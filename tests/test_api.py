"""The README's examples run as written, and the exported names stay fixed.

Each ```python block of README.md runs in order in one namespace.  An
expression statement followed by ``# value`` must have that repr, and the
comment lines that close a block must be what the block printed.  Numbers
match to a relative 1e-12, and ``...`` after one stands for further digits.
"""

import ast
import contextlib
import io
import math
import re
from pathlib import Path

import pytest

import meso_spectra
from meso_spectra import experiments

README = Path(__file__).resolve().parents[1] / "README.md"

ROOT_API = {
    "DEFAULT_DELTA", "EntryLaw", "InvalidPerturbationError", "InversionError",
    "MasterOperator", "MesoSpectraError", "MissingRootError", "Model",
    "ModelError", "ModelKind", "NotSeparatedError", "OutlierRoot",
    "PerturbationSpec", "RngStream", "Side", "SpectrumModel",
    "empirical_quantiles", "locate_outliers", "perturb_additive",
    "perturb_multiplicative", "predict", "predict_location",
    "predict_projection_norm", "sample_conjugated", "sample_haar_frame",
    "sample_wigner", "sample_wishart", "target_index", "__version__",
}

EXPERIMENTS_API = {
    "ConfigError", "ExperimentError", "PreconditionError", "aggregate",
    "load_config", "load_spectrum_values", "random_stability_sweep",
    "run_experiment", "verify_sandwich_bounds",
}


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


NUMBER = r"-?\d+(?:\.\d*)?(?:e[+-]?\d+)?"
SHOWN = NUMBER + r"(?:\.\.\.)?"


def matches(expected: str, actual: str) -> bool:
    """Same text, numbers within 1e-12, and ``2.55...`` a digit prefix."""
    pattern = f"({NUMBER})".join(re.escape(text) for text in re.split(SHOWN, expected))
    got = re.fullmatch(pattern, actual)
    if got is None:
        return False
    for want, value in zip(re.findall(SHOWN, expected), got.groups()):
        if want.endswith("..."):
            if not value.startswith(want[:-3]):
                return False
        elif not math.isclose(float(value), float(want), rel_tol=1e-12, abs_tol=1e-12):
            return False
    return True


def test_readme_has_the_examples():
    blocks = python_blocks()
    assert len(blocks) >= 3
    assert "locate_outliers" in blocks[-1]


def test_readme_examples_run_as_written():
    namespace: dict = {}
    for block in python_blocks():
        lines = block.splitlines()
        printed = []
        while lines and lines[-1].startswith("# "):
            printed.insert(0, lines.pop()[2:])
        out = io.StringIO()
        for stmt in ast.parse(block).body:
            with contextlib.redirect_stdout(out):
                if not isinstance(stmt, ast.Expr):
                    exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
                    continue
                value = eval(compile(ast.Expression(stmt.value), "README", "eval"),
                             namespace)
            expected = lines[stmt.end_lineno - 1].partition("# ")[2]
            if expected:
                assert matches(expected, repr(value)), (expected, value)
        got = out.getvalue().splitlines()
        assert len(got) == len(printed)
        for want, line in zip(printed, got):
            assert matches(want, line), (want, line)


@pytest.mark.parametrize("module, names", [
    (meso_spectra, ROOT_API),
    (experiments, EXPERIMENTS_API),
], ids=["meso_spectra", "experiments"])
def test_exports(module, names):
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == names
    for name in module.__all__:
        assert getattr(module, name) is not None
