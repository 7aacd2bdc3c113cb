"""Command-line interface.

Subcommands
-----------
predict     print predicted locations and projection norms for strengths
sample      draw a base ensemble and print or save its spectrum
detect      locate outliers two ways (master equation vs eigensolve)
verify      run a configured experiment and check its thresholds
sweep       run a config across its size ladder and print the trend
sandwich    evaluate the deterministic transform stability bounds

Exit codes: 0 success/pass, 1 verification failure, 2 usage or config error.
``MESO_SEED`` overrides ``--seed`` wherever a seed flag exists; a seed
outside ``[0, 2**64)`` is a usage error.  All tables are tab-separated with
a header line.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__
from .ensembles import (
    EntryLaw,
    RngStream,
    eigensolve,
    sample_conjugated,
    sample_ensemble,
    sample_wigner,
    sample_wishart,
    spectrum_column,
)
from .master_equation import MasterOperator, locate_outliers
from .predictor import DEFAULT_DELTA, predict
from .spectral_core import (
    InvalidPerturbationError,
    MesoSpectraError,
    Model,
    ModelError,
    ModelKind,
    PerturbationSpec,
    SpectrumModel,
    target_index,
)
from .experiments import (
    ConfigError,
    ExperimentError,
    PreconditionError,
    aggregate,
    load_config,
    load_spectrum_values,
    random_stability_sweep,
    run_experiment,
    verify_sandwich_bounds,
)
from .experiments.config import SEED_LIMIT
from .transforms import empirical_quantiles

USAGE_ERROR = 2
CHECK_FAILED = 1

_KIND_CHOICES = [k.value for k in ModelKind]


def _fmt(value, spec: str = "g") -> str:
    if value is None:
        return "-"
    return format(value, spec)


def _resolve_seed(seed: int) -> int:
    """``MESO_SEED`` when set, else ``--seed``; either must lie in
    ``[0, 2**64)``, as a config's ``seed`` must."""
    source, env = "--seed", os.environ.get("MESO_SEED")
    if env is not None:
        source = "MESO_SEED"
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"MESO_SEED: not an integer: {env!r}") from None
    if not 0 <= seed < SEED_LIMIT:
        raise ConfigError(f"{source}: must lie in [0, 2**64), got {seed}")
    return seed


def positive_int(text: str) -> int:
    """Argparse type for counts: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _spectrum_from_file(path: str, n: int | None) -> SpectrumModel:
    values = load_spectrum_values(path)
    if n is not None and n != values.size:
        values = empirical_quantiles(values, n)
    return SpectrumModel.from_values(values)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_predict(args) -> int:
    kind = ModelKind(args.kind)
    if (args.phi is not None) != (kind is ModelKind.WISHART):
        raise ConfigError("--phi is required for wishart and invalid otherwise")
    if (args.spectrum_file is not None) != (not kind.closed_form):
        raise ConfigError(
            "--spectrum-file is required for orthogonally invariant kinds "
            "and invalid otherwise"
        )
    spectrum = None if kind.closed_form else _spectrum_from_file(args.spectrum_file, args.n)
    model = Model(kind=kind, spectrum=spectrum, phi=args.phi)
    pert = PerturbationSpec.from_values(args.theta)
    n_hint = args.n or (model.spectrum.n if model.spectrum else pert.m + 1)
    preds = predict(model, pert, n_hint, args.delta)
    print("theta\tseparated\tlocation\tproj_norm_sq")
    for pred in preds:
        yn = "yes" if pred.separated else "no"
        print(f"{pred.theta:g}\t{yn}\t{_fmt(pred.location)}\t"
              f"{_fmt(pred.projection_norm_sq)}")
    return 0


def cmd_sample(args) -> int:
    seed = _resolve_seed(args.seed)
    law = EntryLaw(args.law)
    rng = RngStream(seed, 0)
    if args.kind != "wishart" and (args.phi is not None or args.p is not None):
        raise ConfigError("--phi and --p are for wishart sampling only")
    if args.kind != "conjugated" and args.spectrum_file is not None:
        raise ConfigError("--spectrum-file is for conjugated sampling only")
    if args.kind == "wigner":
        matrix = sample_wigner(args.n, law, rng)
    elif args.kind == "wishart":
        if (args.phi is None) == (args.p is None):
            raise ConfigError("wishart sampling needs exactly one of --phi or --p")
        p = args.p if args.p is not None else Model.wishart(args.phi).p_for(args.n)
        matrix = sample_wishart(args.n, p, law, rng)
    else:
        if args.spectrum_file is None:
            raise ConfigError("conjugated sampling needs --spectrum-file")
        spectrum = _spectrum_from_file(args.spectrum_file, args.n)
        matrix = sample_conjugated(spectrum, rng)
    evals = np.linalg.eigvalsh(matrix)[::-1]
    if args.out is not None:
        with open(args.out, "w") as handle:
            for v in evals:
                handle.write(f"{float(v)!r}\n")
    print("kind\tn\tseed\tlam_max\tlam_min\tmean\tsecond_moment")
    print(f"{args.kind}\t{args.n}\t{seed}\t{evals[0]:.6g}\t{evals[-1]:.6g}\t"
          f"{np.mean(evals):.6g}\t{np.mean(evals**2):.6g}")
    return 0


def cmd_detect(args) -> int:
    seed = _resolve_seed(args.seed)
    spectrum = _spectrum_from_file(args.spectrum_file, args.n)
    model = Model(kind=ModelKind(f"orth-invariant-{args.kind}"), spectrum=spectrum)
    pert = PerturbationSpec.from_values(args.theta)
    n = spectrum.n
    sample = sample_ensemble(model, pert, n, RngStream(seed, 0))
    op = MasterOperator(model=model, pert=pert.with_frame(sample.frame))
    roots = locate_outliers(op, args.delta, tol=args.tol)
    if not roots:
        print("no separated outliers")
        return 0

    evals = eigensolve(sample, vectors=False)
    print("rank\ttheta\tmaster\teigensolve\tdelta")
    for root in roots:
        col = spectrum_column(target_index(pert, root.rank, n), pert.m_positive,
                              n, evals.size)
        realized = float(evals[col])
        print(f"{root.rank}\t{pert.thetas[root.rank - 1]:g}\t"
              f"{root.location:.6f}\t{realized:.6f}\t"
              f"{abs(root.location - realized):.3g}")
    return 0


def _flatten_aggregates(agg: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for key, value in agg.items():
        name = f"{prefix}{key}" if not prefix else f"{prefix}_{key}"
        if isinstance(value, dict):
            flat.update(_flatten_aggregates(value, name))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[name] = float(value)
    return flat


def _check_thresholds(thresholds: dict, agg: dict) -> list[str]:
    flat = _flatten_aggregates(agg)
    failures = []
    for key, bound in thresholds.items():
        direction, metric = key.split("_", 1)
        if metric not in flat:
            raise ConfigError(
                f"thresholds: {key}: no metric {metric!r} in aggregates "
                f"(have: {', '.join(sorted(flat))})"
            )
        value = flat[metric]
        ok = value >= bound if direction == "min" else value <= bound
        if not ok:
            cmp = ">=" if direction == "min" else "<="
            failures.append(f"{metric} = {value:g} fails {cmp} {bound:g}")
    return failures


def _summary_line(experiment: str, agg: dict) -> str:
    if experiment == "location":
        return (f"coverage={_fmt(agg.get('coverage'), '.4g')}\t"
                f"median_abs_error={_fmt(agg['abs_error']['median'], '.4g')}\t"
                f"outliers={agg['outliers_evaluated']}")
    if experiment == "eigenvector":
        # Multiplicative runs measure the whitened projection, not a residual.
        last = (f"median_whitened_error={_fmt(agg['whitened_abs_error']['median'], '.4g')}"
                if "whitened_abs_error" in agg else
                f"median_residual={_fmt(agg['residual']['median'], '.4g')}")
        return (f"coverage={_fmt(agg.get('coverage'), '.4g')}\t"
                f"median_norm_error={_fmt(agg['proj_norm_abs_error']['median'], '.4g')}\t"
                f"{last}")
    if experiment == "pushforward":
        return (f"monotone_batches={agg['monotone_batches']}/{agg['batches']}\t"
                f"w1_median_per_n={agg['w1_median_per_n']}")
    return (f"deviation_per_n={ {k: round(v['median'], 6) for k, v in agg['deviation_per_n'].items()} }\t"
            f"median_ratio={_fmt(agg.get('median_ratio'), '.4g')}")


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    report = run_experiment(cfg)
    print(f"experiment={cfg.experiment}\t{_summary_line(cfg.experiment, report.aggregates)}")
    if cfg.report_path:
        print(f"report={cfg.report_path}")
    failures = _check_thresholds(cfg.thresholds, report.aggregates)
    for failure in failures:
        print(f"FAIL\t{failure}")
    return CHECK_FAILED if failures else 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    report = run_experiment(cfg)
    if cfg.experiment in ("location", "eigenvector"):
        print("n\tm\tcoverage\tmedian_abs_error\tsqrt_m_over_n")
        for n in cfg.n_values:
            subset = [r for r in report.records if r.n == n]
            agg = aggregate(cfg.experiment, subset, cfg.epsilon)
            m = cfg.m_for(n)
            print(f"{n}\t{m}\t{_fmt(agg.get('coverage'), '.4g')}\t"
                  f"{_fmt(agg['abs_error']['median'], '.4g')}\t"
                  f"{math.sqrt(m / n):.4g}")
    elif cfg.experiment == "pushforward":
        agg = report.aggregates
        print("batch\t" + "\t".join(f"w1_n{n}" for n in cfg.n_values))
        for batch, ladder in sorted(agg["w1_per_batch"].items(), key=lambda kv: int(kv[0])):
            print(batch + "\t" + "\t".join(f"{w:.4g}" for w in ladder))
        print(f"monotone_batches={agg['monotone_batches']}/{agg['batches']}")
    else:
        print("n\tm\tmedian\tp95")
        for n in cfg.n_values:
            stats = report.aggregates["deviation_per_n"][str(n)]
            print(f"{n}\t{cfg.m_for(n)}\t{stats['median']:.4g}\t{stats['p95']:.4g}")
    return 0


def cmd_sandwich(args) -> int:
    if args.random is not None:
        seed = _resolve_seed(args.seed)
        results = random_stability_sweep(args.random, seed, args.xi_count)
        rows = sum(len(r.rows) for r in results)
        failures = sum(len(r.failures()) for r in results)
        print("instances\trows\tfailures")
        print(f"{len(results)}\t{rows}\t{failures}")
        return 0 if failures == 0 else CHECK_FAILED
    if args.spectrum_file is None or args.theta is None:
        raise ConfigError("provide --spectrum-file and --theta, or --random K")
    spectrum = _spectrum_from_file(args.spectrum_file, args.n)
    xi_grid = np.linspace(-args.delta, args.delta, args.xi_count)
    result = verify_sandwich_bounds(spectrum, args.theta, args.delta, xi_grid)
    print("family\txi\tlower\tdeviation\tupper\tpassed")
    for row in result.rows:
        print(f"{row.family}\t{row.xi:.4g}\t{row.lower:.6g}\t"
              f"{row.deviation:.6g}\t{row.upper:.6g}\t"
              f"{'yes' if row.passed else 'no'}")
    return 0 if result.all_passed else CHECK_FAILED


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meso-spectra",
        description="Extreme eigenvalues of low-rank perturbed random matrices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="predicted locations and projection norms")
    p.add_argument("--kind", required=True, choices=_KIND_CHOICES)
    p.add_argument("--theta", required=True, nargs="+", type=float,
                   help="one or more strengths")
    p.add_argument("--phi", type=float, help="aspect ratio n/p (wishart only)")
    p.add_argument("--spectrum-file", help="base spectrum (orth-invariant kinds)")
    p.add_argument("--n", type=positive_int,
                   help="resample the spectrum file to this size")
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("sample", help="draw a base ensemble, print its spectrum summary")
    p.add_argument("--kind", required=True, choices=["wigner", "wishart", "conjugated"])
    p.add_argument("--n", required=True, type=positive_int)
    p.add_argument("--phi", type=float, help="aspect ratio n/p (wishart only)")
    p.add_argument("--p", type=int, help="sample count p (wishart only)")
    p.add_argument("--law", choices=[l.value for l in EntryLaw], default="gaussian",
                   help="entry law; a gaussian wigner matrix is GOE (diagonal "
                        "variance 2/n, off-diagonal 1/n), a rademacher one has "
                        "+-1/sqrt(n) everywhere (default: gaussian)")
    p.add_argument("--spectrum-file", help="source spectrum (conjugated only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write eigenvalues here, one per line")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("detect", help="master-equation vs eigensolve locations")
    p.add_argument("--spectrum-file", required=True)
    p.add_argument("--theta", required=True, nargs="+", type=float)
    p.add_argument("--n", type=positive_int, help="resample the spectrum to this size")
    p.add_argument("--kind", choices=["additive", "multiplicative"], default="additive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--tol", type=float, help="root tolerance (default 1e-9 scale)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("verify", help="run a config and check its thresholds")
    p.add_argument("config", help="path to a JSON experiment config")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="run a config and print the per-size trend")
    p.add_argument("config", help="path to a JSON experiment config")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sandwich", help="deterministic transform stability bounds")
    p.add_argument("--spectrum-file")
    p.add_argument("--theta", type=float)
    p.add_argument("--n", type=positive_int)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--xi-count", type=positive_int, default=11)
    p.add_argument("--random", type=positive_int, metavar="K",
                   help="sweep K random separated instances instead")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sandwich)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ModelError, PreconditionError, InvalidPerturbationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILED
    except MesoSpectraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
