"""meso-spectra benchmark: seeded experiment configs run through ``verify``.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload orth-detect --seed 7 --seconds 10 --trace 0

Each run writes the workload's config (its ``seed`` is ``--seed``), loads it,
warms LAPACK at the workload's size, then runs ``meso-spectra verify`` on it
in a closed loop for ``--seconds`` seconds.  Every repeat must pass the
config's thresholds and reproduce the first repeat's report digest.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced repeats and reports per-layer metrics.  Human
readable lines come first; the last line of standard output is one JSON
object.  See ``bench/README.md``.
"""

from __future__ import annotations

import time

START = time.perf_counter()  # setup_s counts from here

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

BAND = 0.15
COVERAGE_MIN = 0.95

# Each workload stresses different layers; README.md gives the full map.
WORKLOADS = {
    # Dense value-only eigvalsh (~3/4 of a trial) and Wigner sampling do the
    # work; the closed-form kind bypasses the detector and the transforms.
    "wigner-location": {
        "experiment": "location",
        "kind": "wigner",
        "n_values": [2000],
        "theta_spec": {"values": [1.5, 1.6, 1.7, 1.8, 1.9,
                                  2.0, 2.1, 2.2, 2.3, 2.4]},
        "trials": 2,
        "thresholds": {"min_coverage": COVERAGE_MIN},
    },
    # The detector cross-check (automatic at n <= 400) takes over half the
    # time: bisection of the counting function and repeated Stieltjes
    # inversions for separation verdicts that never change between trials.
    "orth-detect": {
        "experiment": "location",
        "kind": "orth-invariant-additive",
        "n_values": [400],
        "spectrum": {"name": "semicircle"},
        "theta_spec": {"values": [2.4, 2.2, 2.0, 1.9, -1.9, -2.0, -2.2, -2.4]},
        "trials": 40,
        "thresholds": {"min_coverage": COVERAGE_MIN,
                       "max_detector_delta_max": 1e-8},
    },
    # Eigenvectors (eigh, not eigvalsh) and the dense S B S assembly with its
    # Cholesky PSD guard (multiplicative, not low-rank additive).
    "orth-mult-eigenvector": {
        "experiment": "eigenvector",
        "kind": "orth-invariant-multiplicative",
        "n_values": [1000],
        "spectrum": {"name": "uniform", "low": 0.5, "high": 2.5},
        "theta_spec": {"values": [1.5, 1.2, 1.0, -0.88, -0.92, -0.96]},
        "trials": 10,
        "cross_check": False,
        "thresholds": {"min_coverage": COVERAGE_MIN,
                       "max_proj_norm_abs_error_median": 0.05},
    },
}

# Fresh processes that repeat the set-up; setup_s is the median of these and
# the measuring process's own set-up.
SETUP_PROBES = 2

END_TO_END = {
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Counts that depend only on the config and seed; they must repeat exactly.
EXACT_SUFFIXES = (".calls", ".roots", ".failures", ".bytes",
                  "evals_per_root", "inversions_per_trial")

PER_LAYER = {
    "harness.eigvalsh_dense.calls": "count",
    "harness.eigvalsh_dense.busy_s": "s",
    "ensembles.sample_wigner.busy_s": "s",
    "ensembles.eigensolve.calls": "count",
    "ensembles.eigensolve.busy_s": "s",
    "ensembles.perturb_multiplicative.busy_s": "s",
    "master_equation.locate_outliers.calls": "count",
    "master_equation.locate_outliers.busy_s": "s",
    "master_equation.locate_outliers.roots": "count",
    "master_equation.locate_outliers.failures": "count",
    "master_equation.counting_function.calls": "count",
    "master_equation.counting_function.busy_s": "s",
    "master_equation.evals_per_root": "evals/root",
    "spectral_core.check_separation.calls": "count",
    "spectral_core.check_separation.busy_s": "s",
    "transforms.invert_stieltjes.calls": "count",
    "transforms.invert_stieltjes.busy_s": "s",
    "transforms.invert_t_transform.calls": "count",
    "transforms.invert_t_transform.busy_s": "s",
    "transforms.inversions_per_trial": "1/trial",
    "ensembles.sample_ensemble.calls": "count",
    "ensembles.sample_ensemble.busy_s": "s",
    "ensembles.perturb_additive.busy_s": "s",
    "ensembles.sample_haar_frame.busy_s": "s",
    "predictor.predict.busy_s": "s",
    "reports.aggregate.busy_s": "s",
    "reports.write_report.busy_s": "s",
    "reports.write_report.bytes": "B",
    "harness.run_experiment.self_s": "s",
    "config.load_config.busy_s": "s",
    "setup.warmup_s": "s",
    "trace.trials_per_s": "1/s",
    "trace.untraced_trials_per_s": "1/s",
}


def prepare() -> None:
    """Cap BLAS threads at the usable cores (at most 2) and put src on the path.

    Must run before numpy is first imported for the thread cap to apply.
    """
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, threads)
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Workload:
    """One workload's config on disk, its report path and a verify driver."""

    def __init__(self, name: str, seed: int):
        run_dir = Path("bench") / ".out" / f"{name}-seed{seed}"
        self.dir = ROOT / run_dir
        self.config_path = self.dir / "config.json"
        self.report_path = self.dir / "report.json"
        # Relative to the repository root, so the report echo (and digest)
        # does not depend on where the checkout lives.
        doc = dict(WORKLOADS[name], seed=seed,
                   report_path=str(run_dir / "report.json"),
                   delta=BAND, epsilon=BAND)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        self.trials = doc["trials"]

    def setup(self) -> float:
        """Load the config and warm LAPACK at its size; returns warm-up seconds."""
        from meso_spectra.experiments import load_config

        cfg = load_config(self.config_path)
        n = cfg.n_values[0]
        return warm_up(n, cfg.m_for(n))

    def verify(self) -> tuple[int, float]:
        """One ``meso-spectra verify`` run: exit code and wall seconds."""
        from meso_spectra import cli

        for path in (self.report_path, self.report_path.with_suffix(".csv")):
            path.unlink(missing_ok=True)
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["verify", str(self.config_path)])
        return code, time.perf_counter() - start

    def report_check(self) -> tuple[str | None, int]:
        """Digest of the report without its wall time, and its failed trials."""
        try:
            doc = json.loads(self.report_path.read_text())
        except (OSError, json.JSONDecodeError):
            return None, 0
        doc.pop("wall_clock_seconds")
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        return digest, sum(bool(r["failed"]) for r in doc["records"])


def warm_up(n: int, m: int) -> float:
    """First LAPACK calls in a process are several times slower than later ones."""
    import numpy as np

    start = time.perf_counter()
    gen = np.random.default_rng(0)
    a = gen.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    np.linalg.eigvalsh(a)
    np.linalg.eigh(a)
    np.linalg.cholesky(a @ a.T / n + np.eye(n))
    np.linalg.qr(gen.standard_normal((n, max(m, 1))))
    return time.perf_counter() - start


class Reference:
    """A fixed mix of LAPACK and interpreter work, owned by the benchmark.

    The host is shared, and other tenants slow every kind of work here by up
    to 2x for minutes at a time.  Timing this kernel before and after each
    repeat and scaling by its slowdown cancels much of that drift.  The
    kernel mixes a cache-resident and a larger symmetric eigensolve with an
    interpreter loop, because the workloads slow down through both.
    """

    # Median time of ``seconds()`` on the 2-core, OpenBLAS 0.3.31 machine the
    # benchmark was defined on; scaled values read as that machine's.
    NOMINAL_S = 0.14

    def __init__(self):
        import numpy as np

        gen = np.random.default_rng(0)
        self.matrices = []
        for n in (1000, 500, 500):
            a = gen.standard_normal((n, n))
            self.matrices.append(a + a.T)

    def seconds(self) -> float:
        import numpy as np

        start = time.perf_counter()
        for matrix in self.matrices:
            np.linalg.eigvalsh(matrix)
        total = 0
        for i in range(300_000):
            total += i * i
        return time.perf_counter() - start

    def speed_factor(self, seconds: float) -> float:
        """How much slower than nominal the machine ran while this kernel did."""
        return seconds / self.NOMINAL_S

    def settled_factor(self) -> float:
        """Slowdown from the median of three timings, the first one warming up."""
        return self.speed_factor(statistics.median(self.seconds() for _ in range(3)))


class Checks:
    """Correctness checks and trial counts behind ``failed`` and ``attempted``."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.digest: str | None = None
        self.trials = 0
        self.failed_trials = 0
        self.checks = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)

    def after_verify(self, code: int) -> None:
        digest, failed = self.workload.report_check()
        self.trials += self.workload.trials
        self.failed_trials += failed
        self.check(code == 0, f"verify exited {code}: a threshold failed")
        if self.digest is None:
            self.digest = digest
        self.check(digest is not None and digest == self.digest,
                   "report digest differs from the first repeat")

    @property
    def attempted(self) -> int:
        return self.trials + self.checks

    @property
    def failed(self) -> int:
        return self.failed_trials + len(self.failures)


def layer_values(tracer, trials: int) -> dict:
    calls, busy = tracer.layer_totals()
    values = dict(tracer.counters)
    for layer in calls.keys() | busy.keys():
        values[f"{layer}.calls"] = calls[layer]
        values[f"{layer}.busy_s"] = busy[layer]
    values["harness.run_experiment.self_s"] = busy["harness.run_experiment"]
    roots = values.get("master_equation.locate_outliers.roots", 0)
    values["master_equation.evals_per_root"] = (
        calls["master_equation.counting_function"] / roots if roots else 0.0
    )
    values["transforms.inversions_per_trial"] = (
        calls["transforms.invert_stieltjes"] + calls["transforms.invert_t_transform"]
    ) / trials
    return values


def traced_repeats(workload: Workload, checks: Checks, seconds: float) -> tuple[dict, list]:
    """Alternate untraced and traced verify runs; per-layer medians and spans."""
    from tracing import Tracer

    untraced, traced, per_repeat, spans = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        code, wall = workload.verify()
        checks.after_verify(code)
        untraced.append(workload.trials / wall)
        tracer = Tracer()
        with tracer.installed():
            code, wall = workload.verify()
        checks.after_verify(code)
        traced.append(workload.trials / wall)
        per_repeat.append(layer_values(tracer, workload.trials))
        spans.append(tracer.spans)
    values = {}
    for name in PER_LAYER:
        series = [v.get(name, 0) for v in per_repeat]
        if name.endswith(EXACT_SUFFIXES):
            checks.check(len(set(series)) == 1, f"{name} differs between repeats: {series}")
            values[name] = series[0]
        else:
            values[name] = statistics.median(series)
    values["trace.trials_per_s"] = statistics.median(traced)
    values["trace.untraced_trials_per_s"] = statistics.median(untraced)
    return values, spans


def timed_repeats(workload: Workload, checks: Checks, seconds: float,
                  reference: Reference) -> tuple[list[float], list[float]]:
    """Closed-loop verify runs: raw and reference-scaled trials per second."""
    raw, scaled = [], []
    start = time.perf_counter()
    while not raw or time.perf_counter() - start < seconds:
        before = reference.seconds()
        code, wall = workload.verify()
        after = reference.seconds()
        checks.after_verify(code)
        raw.append(workload.trials / wall)
        scaled.append(raw[-1] * reference.speed_factor(0.5 * (before + after)))
    return raw, scaled


def probe_setups(args) -> list[float]:
    """Set-up seconds of fresh processes, run one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "meso_spectra").is_dir():
        print(f"error: no meso_spectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # the config's report path is relative to the root
    prepare()
    workload = Workload(args.workload, args.seed)
    warmup_s = workload.setup()
    raw_setup_s = time.perf_counter() - START
    reference = Reference()
    setup_s = raw_setup_s / reference.settled_factor()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    machine = machine_record()
    checks = Checks(workload)
    spans = raw = None
    if args.trace:
        values, spans = traced_repeats(workload, checks, args.seconds)
        values["setup.warmup_s"] = warmup_s
        units = PER_LAYER
    else:
        raw, scaled = timed_repeats(workload, checks, args.seconds, reference)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_s] + probe_setups(args)
        values = {
            "trials_per_s": statistics.median(scaled),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
        print(f"samples\ttrials_per_s={len(raw)} repeats of {workload.trials} trials"
              f"\tsetup_s={len(setups)} processes")
        print(f"raw\ttrials_per_s={statistics.median(raw)!r}\tsetup_s={raw_setup_s!r}")
    failed_frac = checks.failed / checks.attempted

    print("machine\t" + json.dumps(machine, sort_keys=True))
    print(f"digest\t{args.workload}\tseed={args.seed}\tsha256={checks.digest}")
    for name, unit in units.items():
        print(f"metric\t{name}\t{values[name]!r}\t{unit}")
    print(f"metric\tfailed_frac\t{failed_frac!r}\t1")
    for failure in checks.failures:
        print(f"FAIL\t{failure}")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "digest": checks.digest, "failed_frac": failed_frac,
              "failures": checks.failures, "raw_trials_per_s": raw, "metrics": metrics}
    (workload.dir / f"bench-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True))
    if spans is not None:
        (workload.dir / "spans.json").write_text(json.dumps(
            [[list(span) for span in repeat] for repeat in spans]))
    correct = not checks.failures and checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
