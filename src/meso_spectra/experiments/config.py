"""Experiment configuration: a single JSON document, validated eagerly.

The schema's keys are the field names of :class:`ExperimentConfig`.  A
config names the experiment, the model family, the size ladder, the rank
rule, and the strengths; validation reports the first violation found so a
CLI caller can surface one actionable message.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from ..ensembles import EntryLaw
from ..predictor import check_separation
from ..spectral_core import MesoSpectraError, Model, ModelKind, SpectrumModel
from ..transforms import empirical_quantiles, mp_quantiles, semicircle_quantiles

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "load_spectrum_values",
]

EXPERIMENTS = ("location", "eigenvector", "pushforward", "concentration")

# Seeds seed numpy's SeedSequence through RngStream, which takes
# non-negative integers; 64 bits is the range a config or the CLI accepts.
SEED_LIMIT = 2**64

# Cross-checking the master-equation detector against the eigensolve is
# automatic for orthogonally invariant kinds up to this size.
CROSS_CHECK_MAX_N = 400

_SPECTRUM_NAMES = ("semicircle", "marchenko-pastur", "file", "values", "uniform")


class ConfigError(MesoSpectraError, ValueError):
    """A configuration document violates the schema; message names the field."""


def load_spectrum_values(path) -> np.ndarray:
    """Read a spectrum file: one plain decimal eigenvalue per line."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"spectrum: cannot read {path}: {exc}") from exc
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError:
            raise ConfigError(
                f"spectrum: {path}:{lineno}: not a decimal number: {line!r}"
            ) from None
    if not values:
        raise ConfigError(f"spectrum: {path} contains no eigenvalues")
    return np.asarray(values, dtype=float)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _as_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    return value


def _as_real(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{name}: must be finite")
    return value


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Validated experiment description.

    ``m_rule`` is either ``{"fixed": M}`` with ``M >= 1`` or ``{"power":
    alpha}`` meaning ``M = floor(N^alpha)`` (the mesoscopic regime needs
    ``alpha < 1``); ``pushforward`` and ``concentration`` require it and
    the other experiments, whose rank is the number of strengths, refuse it.
    ``theta_spec`` is ``{"values": [...]}`` or
    ``{"distribution": "uniform", "low": a, "high": b}``.
    """

    experiment: str
    kind: ModelKind | None
    n_values: tuple[int, ...]
    m_rule: dict | None
    theta_spec: dict | None
    delta: float
    epsilon: float
    trials: int
    batches: int
    seed: int
    phi: float | None
    entry_law: EntryLaw
    spectrum: dict | None
    z: float | None
    report_path: str | None
    thresholds: dict = field(default_factory=dict)
    cross_check: bool | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        _require(isinstance(doc, dict), "config: expected a JSON object")
        known = {f.name for f in fields(cls)}
        for key in sorted(doc):
            _require(key in known, f"{key}: unknown config key")
        # Explicit nulls mean "not set", so round trips through to_dict work.
        doc = {k: v for k, v in doc.items() if v is not None}

        _require("experiment" in doc, "experiment: required")
        experiment = doc["experiment"]
        _require(experiment in EXPERIMENTS,
                 f"experiment: must be one of {', '.join(EXPERIMENTS)}")

        kind = None
        if "kind" in doc:
            try:
                kind = ModelKind(doc["kind"])
            except ValueError:
                raise ConfigError(f"kind: unknown model kind {doc['kind']!r}") from None
        _require(kind is not None or experiment == "concentration",
                 "kind: required for this experiment")

        _require("n_values" in doc, "n_values: required")
        raw_n = doc["n_values"]
        _require(isinstance(raw_n, list) and raw_n, "n_values: nonempty list required")
        n_values = tuple(_as_int(v, "n_values") for v in raw_n)
        _require(all(v >= 2 for v in n_values), "n_values: sizes must be >= 2")

        theta_spec = doc.get("theta_spec")
        m_rule = doc.get("m_rule")
        if theta_spec is not None:
            theta_spec = cls._check_theta_spec(theta_spec)
        if m_rule is not None:
            m_rule = cls._check_m_rule(m_rule)

        if experiment in ("location", "eigenvector"):
            _require(theta_spec is not None and "values" in theta_spec,
                     "theta_spec: explicit values required for this experiment")
            _require(m_rule is None, "m_rule: not accepted for this experiment, "
                     "whose rank is the number of theta_spec values")
        elif experiment == "pushforward":
            _require(theta_spec is not None and "distribution" in theta_spec,
                     "theta_spec: a distribution is required for pushforward")
            _require(m_rule is not None, "m_rule: required for pushforward")
        else:  # concentration
            _require(m_rule is not None, "m_rule: required for concentration")
            _require("z" in doc, "z: required for concentration")

        z = _as_real(doc["z"], "z") if "z" in doc else None

        trials = _as_int(doc.get("trials", 1), "trials")
        _require(trials >= 1, "trials: must be >= 1")
        batches = _as_int(doc.get("batches", 10), "batches")
        _require(batches >= 1, "batches: must be >= 1")

        _require("seed" in doc, "seed: required")
        seed = _as_int(doc["seed"], "seed")
        _require(0 <= seed < SEED_LIMIT, "seed: must fit in 64 bits")

        # Rank used for the default bands: the largest over the ladder.
        if m_rule is not None:
            m_probe = max(cls._m_from_rule(m_rule, n) for n in n_values)
        else:
            m_probe = len(theta_spec["values"])

        epsilon = doc.get("epsilon")
        if epsilon is None:
            # Error bands scale like sqrt(M/N); the constant 3 gives slack.
            epsilon = max(0.1, 3.0 * math.sqrt(m_probe / min(n_values)))
        else:
            epsilon = _as_real(epsilon, "epsilon")
            _require(epsilon > 0.0, "epsilon: must be positive")
        delta = doc.get("delta")
        if delta is None:
            delta = max(0.1, epsilon)
        else:
            delta = _as_real(delta, "delta")
            _require(delta > 0.0, "delta: must be positive")
        _require(epsilon <= delta, f"epsilon: must be <= delta ({epsilon:g} > {delta:g})")

        phi = _as_real(doc["phi"], "phi") if "phi" in doc else None
        if kind is ModelKind.WISHART:
            _require(phi is not None, "phi: required for wishart")
            _require(0.0 < phi < 1.0, "phi: must lie in (0, 1)")
        else:
            _require(phi is None, "phi: only valid for wishart")

        spectrum = doc.get("spectrum")
        if kind is not None and not kind.closed_form:
            _require(spectrum is not None, "spectrum: required for this kind")
        elif kind is not None:
            _require(spectrum is None, "spectrum: not accepted for closed-form kinds")
        if experiment == "concentration":
            _require(spectrum is not None, "spectrum: required for concentration")
        if spectrum is not None:
            spectrum = cls._check_spectrum(spectrum)

        try:
            entry_law = EntryLaw(doc.get("entry_law", "gaussian"))
        except ValueError:
            raise ConfigError(
                f"entry_law: unknown law {doc['entry_law']!r}"
            ) from None

        report_path = doc.get("report_path")
        if report_path is not None:
            _require(isinstance(report_path, str) and report_path,
                     "report_path: must be a nonempty string")

        thresholds = doc.get("thresholds", {})
        _require(isinstance(thresholds, dict), "thresholds: must be an object")
        for key, val in thresholds.items():
            _require(key.startswith(("min_", "max_")),
                     f"thresholds: {key}: must start with min_ or max_")
            _as_real(val, f"thresholds.{key}")

        cross_check = doc.get("cross_check")
        if cross_check is not None:
            _require(isinstance(cross_check, bool), "cross_check: must be a boolean")

        cfg = cls(
            experiment=experiment,
            kind=kind,
            n_values=n_values,
            m_rule=m_rule,
            theta_spec=theta_spec,
            delta=delta,
            epsilon=epsilon,
            trials=trials,
            batches=batches,
            seed=seed,
            phi=phi,
            entry_law=entry_law,
            spectrum=spectrum,
            z=z,
            report_path=report_path,
            thresholds=dict(thresholds),
            cross_check=cross_check,
        )
        cfg._validate_cross_fields()
        return cfg

    @staticmethod
    def _check_m_rule(rule) -> dict:
        _require(isinstance(rule, dict), "m_rule: expected an object")
        keys = set(rule)
        if keys == {"fixed"}:
            m = _as_int(rule["fixed"], "m_rule.fixed")
            _require(m >= 1, "m_rule.fixed: must be >= 1")
            return {"fixed": m}
        if keys == {"power"}:
            alpha = _as_real(rule["power"], "m_rule.power")
            _require(0.0 < alpha < 1.0,
                     "m_rule.power: exponent must lie in (0, 1) for mesoscopic rank")
            return {"power": alpha}
        raise ConfigError("m_rule: expected exactly one of 'fixed' or 'power'")

    @staticmethod
    def _check_theta_spec(spec) -> dict:
        _require(isinstance(spec, dict), "theta_spec: expected an object")
        keys = set(spec)
        if keys == {"values"}:
            vals = spec["values"]
            _require(isinstance(vals, list) and vals,
                     "theta_spec.values: nonempty list required")
            vals = [_as_real(v, "theta_spec.values") for v in vals]
            _require(all(v != 0.0 for v in vals),
                     "theta_spec.values: strengths must be nonzero")
            return {"values": vals}
        if keys == {"distribution", "low", "high"}:
            _require(spec["distribution"] == "uniform",
                     "theta_spec.distribution: only 'uniform' is supported")
            low = _as_real(spec["low"], "theta_spec.low")
            high = _as_real(spec["high"], "theta_spec.high")
            _require(low < high, "theta_spec: low must be < high")
            _require(low > 0.0, "theta_spec.low: support must be positive")
            return {"distribution": "uniform", "low": low, "high": high}
        raise ConfigError(
            "theta_spec: expected {'values': [...]} or "
            "{'distribution': 'uniform', 'low': a, 'high': b}"
        )

    @staticmethod
    def _check_spectrum(spec) -> dict:
        _require(isinstance(spec, dict), "spectrum: expected an object")
        name = spec.get("name")
        _require(name in _SPECTRUM_NAMES,
                 f"spectrum.name: must be one of {', '.join(_SPECTRUM_NAMES)}")
        keys = set(spec) - {"name"}
        if name == "semicircle":
            _require(not keys, "spectrum: semicircle takes no parameters")
            return {"name": name}
        if name == "marchenko-pastur":
            _require(keys == {"phi"}, "spectrum: marchenko-pastur needs exactly 'phi'")
            phi = _as_real(spec["phi"], "spectrum.phi")
            _require(0.0 < phi < 1.0, "spectrum.phi: must lie in (0, 1)")
            return {"name": name, "phi": phi}
        if name == "file":
            _require(keys == {"path"}, "spectrum: file needs exactly 'path'")
            _require(isinstance(spec["path"], str) and spec["path"],
                     "spectrum.path: nonempty string required")
            return {"name": name, "path": spec["path"]}
        if name == "values":
            _require(keys == {"values"}, "spectrum: needs exactly 'values'")
            vals = spec["values"]
            _require(isinstance(vals, list) and vals,
                     "spectrum.values: nonempty list required")
            return {"name": name, "values": [_as_real(v, "spectrum.values") for v in vals]}
        _require(keys == {"low", "high"}, "spectrum: uniform needs 'low' and 'high'")
        low = _as_real(spec["low"], "spectrum.low")
        high = _as_real(spec["high"], "spectrum.high")
        _require(low < high, "spectrum: low must be < high")
        return {"name": name, "low": low, "high": high}

    def _validate_cross_fields(self) -> None:
        if self.theta_spec is not None and "values" in self.theta_spec:
            m = len(self.theta_spec["values"])
            _require(m < min(self.n_values),
                     f"theta_spec: rank {m} must be below every n")
            if self.kind is not None and self.kind.multiplicative:
                _require(all(v > -1.0 for v in self.theta_spec["values"]),
                         "theta_spec.values: multiplicative strengths must exceed -1")
        if self.m_rule is not None:
            for n in self.n_values:
                m = self._m_from_rule(self.m_rule, n)
                _require(m < n, f"m_rule: rank {m} must be below n={n}")
        if self.experiment == "pushforward":
            _require(all(a < b for a, b in zip(self.n_values, self.n_values[1:])),
                     "n_values: pushforward ladder must be strictly increasing")
            if self.kind.closed_form:
                model = self.model_for(self.n_values[0])
                verdict = check_separation(model, self.delta, self.theta_spec["low"])
                _require(verdict.separated,
                         "theta_spec.low: support must clear the separation "
                         f"threshold {verdict.threshold:g}")

    # -- derived quantities ----------------------------------------------

    @staticmethod
    def _m_from_rule(rule: dict, n: int) -> int:
        if "fixed" in rule:
            return rule["fixed"]
        return int(math.floor(n ** rule["power"]))

    def m_for(self, n: int) -> int:
        """Perturbation rank at size ``n``."""
        if self.m_rule is not None:
            return self._m_from_rule(self.m_rule, n)
        return len(self.theta_spec["values"])

    def thetas(self) -> list[float]:
        if self.theta_spec is None or "values" not in self.theta_spec:
            raise ConfigError("theta_spec: no explicit values in this config")
        return list(self.theta_spec["values"])

    def spectrum_for(self, n: int) -> SpectrumModel:
        """Deterministic base spectrum of size ``n`` per the spectrum entry."""
        spec = self.spectrum
        if spec is None:
            raise ConfigError("spectrum: not configured")
        name = spec["name"]
        if name == "semicircle":
            vals = semicircle_quantiles(n)
        elif name == "marchenko-pastur":
            vals = mp_quantiles(spec["phi"], n)
        elif name == "file":
            vals = empirical_quantiles(load_spectrum_values(spec["path"]), n)
        elif name == "values":
            vals = empirical_quantiles(spec["values"], n)
        else:
            lo, hi = spec["low"], spec["high"]
            vals = (lo + (hi - lo) * (np.arange(n) + 0.5) / n)[::-1].copy()
        return SpectrumModel.from_values(vals)

    def model_for(self, n: int) -> Model:
        if self.kind is None:
            raise ConfigError("kind: not set")
        spectrum = None if self.kind.closed_form else self.spectrum_for(n)
        return Model(kind=self.kind, spectrum=spectrum, phi=self.phi)

    def cross_check_for(self, n: int) -> bool:
        if self.cross_check is not None:
            return self.cross_check
        return (
            self.kind is not None
            and not self.kind.closed_form
            and n <= CROSS_CHECK_MAX_N
        )

    def to_dict(self) -> dict:
        """Canonical JSON-able echo of this config: one key per field."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc.update(
            kind=self.kind.value if self.kind else None,
            n_values=list(self.n_values),
            entry_law=self.entry_law.value,
            thresholds=dict(self.thresholds),
        )
        return doc


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(doc)
