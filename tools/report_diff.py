"""Compare the reports two source trees write for the same experiment configs.

    python3 tools/report_diff.py OLD_SRC NEW_SRC CONFIG.json [CONFIG.json ...]
    python3 tools/report_diff.py OLD_SRC NEW_SRC --acceptance [CONFIG.json ...]

``--acceptance`` adds seventeen configs: the seven of ``ACCEPTANCE_CONFIGS``
in ``tests/test_acceptance.py``, the three workloads of ``bench/run.py``'s
``WORKLOADS`` at seed ``BENCH_SEED``, written as the bench writes them, the
four small ``STRUCTURE_CONFIGS``, which reach each sample structure's solve
and detector paths: a cross-checked Gaussian Wigner (band) and Wishart
(dense) run, a Rademacher Wigner (dense) run and an orthogonally invariant
multiplicative eigenvector run below the partial solve's size rule
(diagonal, dense fallback), and the three small ``KIND_CONFIGS``: a Wishart
eigenvector run and Wishart and orthogonally invariant multiplicative
pushforward runs.

Each config is run by ``meso-spectra verify`` (as ``python -m
meso_spectra.cli verify``) once with ``OLD_SRC`` and once with ``NEW_SRC``
first on ``PYTHONPATH``, writing its report to a temporary directory.  For
each config the script prints whether the two reports hash the same, leaving
out ``wall_clock_seconds`` and ``report_path``.  When they differ it prints
the largest ``|new - old|`` of every numeric field that moved, nested keys
joined by ``.`` and list positions dropped, so that a record field is one
line over all records and trials.  A field present on one side only, or
whose value is not a number, is listed with its two values.  The exit status is 0 when every pair hashes the same, 1
otherwise.
"""

import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

LEFT_OUT = ("wall_clock_seconds", "report_path")

ROOT = Path(__file__).resolve().parent.parent

# The seed of the bench configs ``--acceptance`` runs.
BENCH_SEED = 4242

# Small runs through each sample structure, n <= 600 and a few trials each.
STRUCTURE_CONFIGS = {
    "band-cross-check": {
        "experiment": "location", "kind": "wigner", "n_values": [400],
        "theta_spec": {"values": [2.5, 2.0, -2.2]}, "cross_check": True,
        "delta": 0.2, "epsilon": 0.2, "trials": 4, "seed": 31,
    },
    "wishart-cross-check": {
        "experiment": "location", "kind": "wishart", "phi": 0.5, "n_values": [300],
        "theta_spec": {"values": [2.0, 1.5]}, "cross_check": True,
        "delta": 0.2, "epsilon": 0.2, "trials": 4, "seed": 37,
    },
    "rademacher-location": {
        "experiment": "location", "kind": "wigner", "entry_law": "rademacher",
        "n_values": [300], "theta_spec": {"values": [2.5, -2.0]},
        "delta": 0.2, "epsilon": 0.2, "trials": 4, "seed": 41,
    },
    "diagonal-dense-fallback": {
        "experiment": "eigenvector", "kind": "orth-invariant-multiplicative",
        "n_values": [200], "spectrum": {"name": "uniform", "low": 0.5, "high": 2.5},
        "theta_spec": {"values": [1.5, 1.2, 1.0, -0.88, -0.92, -0.96]},
        "cross_check": False, "delta": 0.15, "epsilon": 0.15, "trials": 4, "seed": 43,
    },
}


# Small runs (n <= 600, a few trials each) where no other config reaches a
# kind's slope or location map: whitened projections on Wishart (the
# Marchenko-Pastur T-transform's derivative), and pushforward ladders on
# Wishart and on the orthogonally invariant multiplicative kind.  Each
# strength support clears its kind's threshold at the config's delta; loading
# a config checks that for closed-form kinds only.
KIND_CONFIGS = {
    "wishart-eigenvector": {
        "experiment": "eigenvector", "kind": "wishart", "phi": 0.25, "n_values": [300],
        "theta_spec": {"values": [2.0, 1.5, -0.9]},
        "delta": 0.15, "epsilon": 0.15, "trials": 4, "seed": 47,
    },
    "wishart-pushforward": {
        "experiment": "pushforward", "kind": "wishart", "phi": 0.25,
        "n_values": [150, 300, 600], "m_rule": {"power": 0.5},
        "theta_spec": {"distribution": "uniform", "low": 1.5, "high": 2.5},
        "delta": 0.15, "epsilon": 0.15, "batches": 3, "seed": 53,
    },
    "multiplicative-pushforward": {
        "experiment": "pushforward", "kind": "orth-invariant-multiplicative",
        "n_values": [150, 300, 600], "m_rule": {"power": 0.5},
        "spectrum": {"name": "uniform", "low": 0.5, "high": 2.5},
        "theta_spec": {"distribution": "uniform", "low": 1.0, "high": 2.0},
        "delta": 0.15, "epsilon": 0.15, "batches": 3, "seed": 59,
    },
}


def load_module(path: Path):
    """The module at ``path``, imported."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def acceptance_configs(src: Path, outdir: Path) -> list[Path]:
    """The acceptance fixture configs, the bench workload configs,
    ``STRUCTURE_CONFIGS`` and ``KIND_CONFIGS``, written to ``outdir``: the
    tests' table as it stands, and each bench workload with its seed and the
    bench's ``delta`` and ``epsilon``.  The tests import the package, from
    ``src``."""
    sys.path.insert(0, str(src))
    tests = load_module(ROOT / "tests" / "test_acceptance.py")
    bench = load_module(ROOT / "bench" / "run.py")
    docs = {f"acceptance-{name}": doc for name, doc in tests.ACCEPTANCE_CONFIGS.items()}
    for name, doc in bench.WORKLOADS.items():
        docs[f"bench-{name}"] = dict(doc, seed=BENCH_SEED, delta=bench.BAND,
                                     epsilon=bench.BAND)
    docs.update((f"structure-{name}", doc) for name, doc in STRUCTURE_CONFIGS.items())
    docs.update((f"kind-{name}", doc) for name, doc in KIND_CONFIGS.items())
    paths = []
    for name, doc in docs.items():
        paths.append(outdir / f"{name}.json")
        paths[-1].write_text(json.dumps(doc, indent=2, sort_keys=True))
    return paths


def run_report(src: Path, config: Path, workdir: Path) -> dict:
    """The report ``verify`` writes for ``config`` with ``src`` on the path."""
    doc = json.loads(config.read_text())
    doc["report_path"] = str(workdir / "report.json")
    written = workdir / "config.json"
    written.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    # verify exits 1 when a threshold fails, and writes the report either way.
    done = subprocess.run([sys.executable, "-m", "meso_spectra.cli", "verify", str(written)],
                          env=env, capture_output=True, text=True)
    report = workdir / "report.json"
    if done.returncode not in (0, 1) or not report.exists():
        raise SystemExit(f"{config} under {src} exited {done.returncode}:\n{done.stderr}")
    return json.loads(report.read_text())


def stripped(value):
    """``value`` without the keys in ``LEFT_OUT``, at any depth."""
    if isinstance(value, dict):
        return {k: stripped(v) for k, v in value.items() if k not in LEFT_OUT}
    if isinstance(value, list):
        return [stripped(v) for v in value]
    return value


def digest(report: dict) -> str:
    text = json.dumps(stripped(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def leaves(value, prefix=""):
    """``(dotted key, leaf)`` for every leaf of nested dicts and lists."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from leaves(item, f"{prefix}[{index}]")
    else:
        yield prefix, value


def numeric(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def moves(old: dict, new: dict) -> dict:
    """Per field, list positions dropped (``records[4].outliers[3].realized``
    is ``records.outliers.realized``), the largest ``|new - old|`` over its
    leaves, or a note for a leaf on one side only or not a number."""
    old_leaves, new_leaves = dict(leaves(old)), dict(leaves(new))
    out = {}
    for key in sorted(old_leaves.keys() | new_leaves.keys()):
        a, b = old_leaves.get(key, "<absent>"), new_leaves.get(key, "<absent>")
        if a == b or (numeric(a) and numeric(b) and math.isnan(a) and math.isnan(b)):
            continue
        field = re.sub(r"\[\d+\]", "", key)
        if not (numeric(a) and numeric(b)):
            out[field] = f"{a!r} -> {b!r}"
        elif not isinstance(out.get(field), str):
            delta = abs(b - a)
            out[field] = max(out.get(field, 0.0), delta if delta == delta else math.inf)
    return out


def main(argv: list[str]) -> int:
    acceptance = "--acceptance" in argv
    argv = [arg for arg in argv if arg != "--acceptance"]
    if len(argv) < 2 or not (acceptance or len(argv) > 2):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old_src, new_src = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    with tempfile.TemporaryDirectory() as config_dir:
        configs = [(arg, Path(arg)) for arg in argv[2:]]
        if acceptance:
            configs += [(path.stem, path)
                        for path in acceptance_configs(new_src, Path(config_dir))]
        return compare(old_src, new_src, configs)


def compare(old_src: Path, new_src: Path, configs: list[tuple[str, Path]]) -> int:
    """Print each ``(label, config)``'s verdict; 0 when every pair hashes
    the same."""
    same_everywhere = True
    for label, config in configs:
        with tempfile.TemporaryDirectory() as old_dir, \
                tempfile.TemporaryDirectory() as new_dir:
            old = run_report(old_src, config, Path(old_dir))
            new = run_report(new_src, config, Path(new_dir))
        same = digest(old) == digest(new)
        same_everywhere &= same
        print(f"{label}: {'same' if same else 'differs'} "
              f"({digest(old)[:12]} / {digest(new)[:12]})")
        if not same:
            for field, move in sorted(moves(stripped(old), stripped(new)).items()):
                print(f"  {field}  {move if isinstance(move, str) else f'max|d| {move:.3g}'}")
    return 0 if same_everywhere else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
