"""Tests for experiment configuration parsing and derived quantities."""

import json
from dataclasses import fields

import numpy as np
import pytest

from meso_spectra import ModelKind
from meso_spectra.experiments import ConfigError, load_config, load_spectrum_values
from meso_spectra.experiments.config import ExperimentConfig


def base_doc(**overrides):
    doc = {
        "experiment": "location",
        "kind": "wigner",
        "n_values": [200],
        "theta_spec": {"values": [2.0, -2.0]},
        "delta": 0.15,
        "epsilon": 0.15,
        "trials": 3,
        "seed": 7,
    }
    doc.update(overrides)
    return doc


class TestParsing:
    def test_minimal_location(self):
        cfg = ExperimentConfig.from_dict(base_doc())
        assert cfg.experiment == "location"
        assert cfg.kind is ModelKind.WIGNER
        assert cfg.n_values == (200,)
        assert cfg.thetas() == [2.0, -2.0]
        assert cfg.trials == 3 and cfg.seed == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus: unknown config key"):
            ExperimentConfig.from_dict(base_doc(bogus=1))

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="experiment: must be one of"):
            ExperimentConfig.from_dict(base_doc(experiment="mystery"))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="kind: unknown model kind"):
            ExperimentConfig.from_dict(base_doc(kind="banded"))

    def test_n_values_required_nonempty(self):
        with pytest.raises(ConfigError, match="n_values"):
            ExperimentConfig.from_dict(base_doc(n_values=[]))
        with pytest.raises(ConfigError, match="n_values"):
            ExperimentConfig.from_dict(base_doc(n_values=[1]))

    def test_theta_values_nonzero(self):
        with pytest.raises(ConfigError, match="nonzero"):
            ExperimentConfig.from_dict(base_doc(theta_spec={"values": [2.0, 0.0]}))

    def test_theta_distribution_validation(self):
        doc = base_doc(
            experiment="pushforward",
            n_values=[100, 200],
            theta_spec={"distribution": "uniform", "low": 2.0, "high": 1.0},
            m_rule={"power": 0.5},
        )
        with pytest.raises(ConfigError, match="low must be < high"):
            ExperimentConfig.from_dict(doc)

    def test_pushforward_requires_distribution(self):
        doc = base_doc(experiment="pushforward", m_rule={"power": 0.5},
                       n_values=[100, 200])
        with pytest.raises(ConfigError, match="distribution is required"):
            ExperimentConfig.from_dict(doc)

    def test_location_requires_values(self):
        doc = base_doc(
            theta_spec={"distribution": "uniform", "low": 1.5, "high": 2.5}
        )
        with pytest.raises(ConfigError, match="explicit values required"):
            ExperimentConfig.from_dict(doc)

    def test_trials_positive(self):
        with pytest.raises(ConfigError, match="trials: must be >= 1"):
            ExperimentConfig.from_dict(base_doc(trials=0))

    def test_seed_required_and_bounded(self):
        doc = base_doc()
        del doc["seed"]
        with pytest.raises(ConfigError, match="seed: required"):
            ExperimentConfig.from_dict(doc)
        with pytest.raises(ConfigError, match="64 bits"):
            ExperimentConfig.from_dict(base_doc(seed=2**64))

    def test_epsilon_must_not_exceed_delta(self):
        with pytest.raises(ConfigError, match="must be <= delta"):
            ExperimentConfig.from_dict(base_doc(epsilon=0.3, delta=0.2))

    def test_default_bands_scale_with_rank(self):
        doc = base_doc(n_values=[400], theta_spec={"values": [2.0] * 4})
        del doc["delta"], doc["epsilon"]
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.epsilon == pytest.approx(max(0.1, 3.0 * np.sqrt(4 / 400)))
        assert cfg.delta == pytest.approx(max(0.1, cfg.epsilon))

    def test_phi_only_for_wishart(self):
        with pytest.raises(ConfigError, match="phi: only valid for wishart"):
            ExperimentConfig.from_dict(base_doc(phi=0.5))
        doc = base_doc(kind="wishart", theta_spec={"values": [2.0]})
        with pytest.raises(ConfigError, match="phi: required"):
            ExperimentConfig.from_dict(doc)

    def test_wishart_p_follows_phi(self):
        with pytest.raises(ConfigError, match="p: unknown config key"):
            ExperimentConfig.from_dict(base_doc(kind="wishart", phi=0.5, p=2000,
                                                theta_spec={"values": [2.0]}))
        cfg = ExperimentConfig.from_dict(base_doc(kind="wishart", phi=0.5,
                                                  n_values=[500, 1000],
                                                  theta_spec={"values": [2.0]}))
        assert [cfg.model_for(n).p_for(n) for n in cfg.n_values] == [1000, 2000]

    @pytest.mark.parametrize("experiment", ["location", "eigenvector"])
    def test_m_rule_rejected_where_the_strengths_set_the_rank(self, experiment):
        doc = base_doc(experiment=experiment, kind="orth-invariant-additive",
                       spectrum={"name": "semicircle"}, m_rule={"fixed": 30})
        with pytest.raises(ConfigError, match="m_rule: not accepted"):
            ExperimentConfig.from_dict(doc)

    def test_spectrum_required_for_empirical_kinds(self):
        doc = base_doc(kind="orth-invariant-additive")
        with pytest.raises(ConfigError, match="spectrum: required"):
            ExperimentConfig.from_dict(doc)

    def test_spectrum_rejected_for_closed_kinds(self):
        doc = base_doc(spectrum={"name": "semicircle"})
        with pytest.raises(ConfigError, match="not accepted for closed-form"):
            ExperimentConfig.from_dict(doc)

    def test_spectrum_names(self):
        doc = base_doc(kind="orth-invariant-additive",
                       spectrum={"name": "sombrero"})
        with pytest.raises(ConfigError, match="spectrum.name"):
            ExperimentConfig.from_dict(doc)

    def test_multiplicative_strength_floor(self):
        doc = base_doc(kind="orth-invariant-multiplicative",
                       theta_spec={"values": [2.0, -1.5]},
                       spectrum={"name": "uniform", "low": 0.5, "high": 2.5})
        with pytest.raises(ConfigError, match="must exceed -1"):
            ExperimentConfig.from_dict(doc)

    def test_rank_below_size(self):
        doc = base_doc(n_values=[4], theta_spec={"values": [2.0] * 4})
        with pytest.raises(ConfigError, match="below every n"):
            ExperimentConfig.from_dict(doc)

    def test_threshold_prefixes(self):
        cfg = ExperimentConfig.from_dict(base_doc(thresholds={"min_coverage": 0.9}))
        assert cfg.thresholds == {"min_coverage": 0.9}
        with pytest.raises(ConfigError, match="min_ or max_"):
            ExperimentConfig.from_dict(base_doc(thresholds={"coverage": 0.9}))

    def test_pushforward_ladder_increasing(self):
        doc = base_doc(
            experiment="pushforward",
            n_values=[200, 100],
            theta_spec={"distribution": "uniform", "low": 1.5, "high": 2.5},
            m_rule={"power": 0.5},
        )
        with pytest.raises(ConfigError, match="strictly increasing"):
            ExperimentConfig.from_dict(doc)

    def test_pushforward_support_clears_threshold(self):
        doc = base_doc(
            experiment="pushforward",
            n_values=[100, 200],
            theta_spec={"distribution": "uniform", "low": 1.1, "high": 2.5},
            m_rule={"power": 0.5},
        )
        with pytest.raises(ConfigError, match="separation threshold"):
            ExperimentConfig.from_dict(doc)

    def test_orth_invariant_pushforward_support_clears_threshold(self):
        # Strengths on [0.3, 0.6] are subcritical on a semicircle spectrum,
        # whose threshold at delta = 0.15 lies above 1.6 at every n here.
        doc = base_doc(
            experiment="pushforward", kind="orth-invariant-additive",
            spectrum={"name": "semicircle"}, n_values=[200, 400, 800],
            theta_spec={"distribution": "uniform", "low": 0.3, "high": 0.6},
            m_rule={"power": 0.5}, batches=3, seed=2,
        )
        with pytest.raises(ConfigError, match="separation threshold .* at n=200"):
            ExperimentConfig.from_dict(doc)

    def test_concentration_required_fields(self):
        doc = {
            "experiment": "concentration",
            "n_values": [100, 400],
            "m_rule": {"fixed": 5},
            "spectrum": {"name": "semicircle"},
            "trials": 4,
            "seed": 3,
        }
        with pytest.raises(ConfigError, match="z: required"):
            ExperimentConfig.from_dict(doc)
        doc["z"] = 3.0
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.z == 3.0 and cfg.kind is None

    @pytest.mark.parametrize("doc", [
        base_doc(experiment="pushforward", n_values=[100, 200],
                 theta_spec={"distribution": "uniform", "low": 1.5, "high": 2.5},
                 m_rule={"fixed": 0}),
        {"experiment": "concentration", "n_values": [100, 200], "m_rule": {"fixed": 0},
         "spectrum": {"name": "semicircle"}, "z": 3.0, "trials": 4, "seed": 1},
    ], ids=["pushforward", "concentration"])
    def test_fixed_rank_at_least_one(self, doc):
        with pytest.raises(ConfigError, match=r"m_rule\.fixed: must be >= 1"):
            ExperimentConfig.from_dict(doc)

    def test_m_rule_forms(self):
        with pytest.raises(ConfigError, match="m_rule"):
            ExperimentConfig._check_m_rule({"fixed": 3, "power": 0.5})
        with pytest.raises(ConfigError, match="mesoscopic"):
            ExperimentConfig._check_m_rule({"power": 1.0})


class TestDerived:
    def test_m_for(self):
        doc = base_doc(
            experiment="pushforward",
            n_values=[100, 400],
            theta_spec={"distribution": "uniform", "low": 1.5, "high": 2.5},
            m_rule={"power": 0.5},
        )
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg.m_for(100) == 10
        assert cfg.m_for(400) == 20
        fixed = ExperimentConfig.from_dict(base_doc())
        assert fixed.m_for(200) == 2

    def test_spectrum_for_uniform(self):
        doc = base_doc(kind="orth-invariant-additive",
                       spectrum={"name": "uniform", "low": -1.0, "high": 1.0})
        cfg = ExperimentConfig.from_dict(doc)
        s = cfg.spectrum_for(10)
        assert s.n == 10
        # Midpoint quantiles of the uniform law on [-1, 1].
        assert s.eigenvalues[0] == pytest.approx(0.9)
        assert s.eigenvalues[-1] == pytest.approx(-0.9)

    def test_spectrum_for_values(self):
        doc = base_doc(kind="orth-invariant-multiplicative",
                       theta_spec={"values": [2.0]},
                       spectrum={"name": "values", "values": [1.0]})
        cfg = ExperimentConfig.from_dict(doc)
        s = cfg.spectrum_for(6)
        assert np.allclose(s.eigenvalues, 1.0)

    @pytest.mark.parametrize("n", [5, 8], ids=["file-length", "resampled"])
    def test_spectrum_for_file_equals_values(self, tmp_path, n):
        values = [2.5, -1.0, 0.25, 3.0, 1.0 / 3.0]
        path = tmp_path / "spec.txt"
        path.write_text("".join(f"{v!r}\n" for v in values))
        spectra = [
            ExperimentConfig.from_dict(base_doc(kind="orth-invariant-additive",
                                                spectrum=spectrum)).spectrum_for(n)
            for spectrum in ({"name": "file", "path": str(path)},
                             {"name": "values", "values": values})
        ]
        assert spectra[0].n == n
        assert np.array_equal(spectra[0].eigenvalues, spectra[1].eigenvalues)
        assert spectra[0].is_psd == spectra[1].is_psd

    def test_model_for(self):
        cfg = ExperimentConfig.from_dict(base_doc())
        assert cfg.model_for(200).kind is ModelKind.WIGNER
        doc = base_doc(kind="orth-invariant-additive",
                       spectrum={"name": "semicircle"})
        cfg = ExperimentConfig.from_dict(doc)
        model = cfg.model_for(64)
        assert model.kind is ModelKind.ORTH_INVARIANT_ADDITIVE
        assert model.spectrum.n == 64

    def test_cross_check_auto_rule(self):
        closed = ExperimentConfig.from_dict(base_doc())
        assert not closed.cross_check_for(200)
        doc = base_doc(kind="orth-invariant-additive",
                       spectrum={"name": "semicircle"})
        empirical = ExperimentConfig.from_dict(doc)
        assert empirical.cross_check_for(200)
        assert empirical.cross_check_for(400)
        assert not empirical.cross_check_for(401)

    def test_cross_check_override(self):
        on = ExperimentConfig.from_dict(base_doc(cross_check=True))
        assert on.cross_check_for(200)
        doc = base_doc(kind="orth-invariant-additive",
                       spectrum={"name": "semicircle"}, cross_check=False)
        off = ExperimentConfig.from_dict(doc)
        assert not off.cross_check_for(100)

    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(base_doc(thresholds={"min_coverage": 0.9}))
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    @pytest.mark.parametrize("doc", [
        base_doc(thresholds={"min_coverage": 0.9}, report_path="out/r.json"),
        base_doc(experiment="eigenvector", kind="wishart", phi=0.5,
                 entry_law="rademacher", theta_spec={"values": [2.0]},
                 cross_check=True),
        base_doc(experiment="pushforward", n_values=[100, 200], batches=4,
                 theta_spec={"distribution": "uniform", "low": 1.5, "high": 2.5},
                 m_rule={"power": 0.5}),
        {"experiment": "concentration", "n_values": [100, 400],
         "m_rule": {"fixed": 5}, "spectrum": {"name": "semicircle"}, "z": 3.0,
         "trials": 4, "seed": 3},
    ], ids=["location", "eigenvector", "pushforward", "concentration"])
    def test_echo_has_one_key_per_field_and_round_trips(self, doc):
        echo = ExperimentConfig.from_dict(doc).to_dict()
        assert set(echo) == {f.name for f in fields(ExperimentConfig)}
        assert json.loads(json.dumps(echo)) == echo
        assert ExperimentConfig.from_dict(echo).to_dict() == echo
        for key, value in doc.items():
            assert echo[key] == value


class TestFiles:
    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_doc()))
        cfg = load_config(path)
        assert cfg.n_values == (200,)

    def test_load_config_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_load_config_missing(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_load_spectrum_values(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("1.5\n-0.25\n2.0\n")
        vals = load_spectrum_values(path)
        assert vals.tolist() == [1.5, -0.25, 2.0]

    def test_load_spectrum_values_reports_line(self, tmp_path):
        path = tmp_path / "spec.txt"
        path.write_text("1.0\nole\n2.0\n")
        with pytest.raises(ConfigError, match=r"spec\.txt:2"):
            load_spectrum_values(path)
