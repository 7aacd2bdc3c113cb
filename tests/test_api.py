"""The README's examples run as written, the exported names stay fixed, and
the source modules import one another in one direction.

Each ```python block of README.md runs in order in one namespace.  An
expression statement followed by ``# value`` must have that repr, and the
comment lines that close a block must be what the block printed.  Numbers
match to a relative 1e-12, and ``...`` after one stands for further digits.

Each ``$ meso-spectra`` command of a ```text block must print the lines
shown under it, word for word: the README aligns columns with spaces where
the command line prints tabs.
"""

import ast
import contextlib
import io
import math
import re
import shlex
from pathlib import Path

import pytest

import meso_spectra
from meso_spectra import cli, experiments

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(meso_spectra.__file__).resolve().parent

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


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)


def python_blocks() -> list[str]:
    return blocks("python")


def cli_examples() -> list[tuple[list[str], list[str]]]:
    """The arguments of each ``$ meso-spectra`` command in the text blocks,
    with the lines shown under it."""
    examples = []
    for block in blocks("text"):
        for chunk in re.split(r"\n\s*\n", block.strip()):
            command, *shown = chunk.replace("\\\n", " ").splitlines()
            assert command.startswith("$ meso-spectra "), command
            examples.append((shlex.split(command)[2:], shown))
    return examples


# The detect example reads a spectrum file, spec.txt, that the README does
# not give, so it is not run.
CLI_EXAMPLES = [example for example in cli_examples() if example[0][0] != "detect"]


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


def test_readme_has_the_cli_examples():
    assert [argv[0] for argv, _ in CLI_EXAMPLES] == [
        "predict", "sample", "sandwich", "verify", "sweep"]
    assert len(blocks("json")) == 1


@pytest.mark.parametrize("argv, shown", CLI_EXAMPLES,
                         ids=[argv[0] for argv, _ in CLI_EXAMPLES])
def test_readme_cli_examples_print_as_shown(argv, shown, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MESO_SEED", raising=False)
    (tmp_path / "loc.json").write_text(blocks("json")[0])
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line.split() for line in printed] == [line.split() for line in shown]


@pytest.mark.parametrize("module, names", [
    (meso_spectra, ROOT_API),
    (experiments, EXPERIMENTS_API),
], ids=["meso_spectra", "experiments"])
def test_exports(module, names):
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == names
    for name in module.__all__:
        assert getattr(module, name) is not None


def is_module(dotted: str) -> bool:
    path = SRC.joinpath(*dotted.split(".")[1:])
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def package_imports(path: Path) -> tuple[set, set]:
    """The package modules the source file ``path`` imports, and the names it
    takes from them: ``(module, name)`` for each name imported from a package
    module and each attribute read off an imported one."""
    parts = ("meso_spectra",) + path.relative_to(SRC).parent.parts
    tree = ast.parse(path.read_text())
    modules, names, aliases = set(), set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "meso_spectra":
                    modules.add(alias.name)
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                base = ".".join(parts[: len(parts) - node.level + 1])
                source = f"{base}.{source}" if source else base
            if source.split(".")[0] != "meso_spectra":
                continue
            for alias in node.names:
                target = f"{source}.{alias.name}"
                if is_module(target):
                    modules.add(target)
                    aliases[alias.asname or alias.name] = target
                else:
                    modules.add(source)
                    names.add((source, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            names.add((aliases[node.value.id], node.attr))
    return modules, names


def test_modules_import_one_way():
    imports = {path.relative_to(SRC).with_suffix("").as_posix(): package_imports(path)
               for path in SRC.rglob("*.py")}
    assert imports["band"][0] == set()
    assert imports["partial"][0] == {"meso_spectra.band"}
    assert "meso_spectra.ensembles" not in imports["band"][0] | imports["partial"][0]
    for module, (_, names) in imports.items():
        private = sorted(f"{source}.{name}" for source, name in names
                         if name.startswith("_") and not name.startswith("__"))
        assert not private, f"{module} reaches private names {private}"
