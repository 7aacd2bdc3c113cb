"""meso_spectra: extreme eigenvalues of low-rank perturbed random matrices.

The package predicts where a rank-M perturbation of a large random matrix
sends its extreme eigenvalues (and how the matching eigenvectors project
onto the perturbation), detects those eigenvalues independently through a
small master-equation operator, and ships a seeded Monte Carlo harness that
confronts the predictions with sampled realizations.

The library logs through the ``meso_spectra`` stdlib logger, which carries a
``NullHandler`` and is silent unless the application configures logging.
"""

import logging

from .spectral_core import (
    InvalidPerturbationError,
    MesoSpectraError,
    Model,
    ModelError,
    ModelKind,
    NotSeparatedError,
    PerturbationSpec,
    Separation,
    Side,
    SpectralWindow,
    SpectrumModel,
    norm_bound,
    target_index,
)
from .transforms import (
    InversionError,
    TransformDomainError,
    empirical_quantiles,
    invert_stieltjes,
    invert_t_transform,
    mp_density,
    mp_edges,
    mp_quantiles,
    mp_t_transform,
    mp_t_transform_deriv,
    semicircle_density,
    semicircle_quantiles,
    semicircle_stieltjes,
    semicircle_stieltjes_deriv,
    stieltjes,
    stieltjes_deriv,
    t_transform,
    t_transform_deriv,
)
from .ensembles import (
    EnsembleSample,
    EntryLaw,
    RngStream,
    eigensolve,
    perturb_additive,
    perturb_multiplicative,
    sample_conjugated,
    sample_ensemble,
    sample_haar_frame,
    sample_wigner,
    sample_wishart,
)
from .master_equation import (
    MasterOperator,
    MissingRootError,
    OutlierRoot,
    counting_function,
    evaluate_d,
    locate_outliers,
)
from .predictor import (
    DEFAULT_DELTA,
    OutlierPrediction,
    check_separation,
    predict,
    predict_location,
    predict_projection_norm,
    predict_whitened_norm,
    pushforward_map,
    pushforward_sample,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "DEFAULT_DELTA",
    "EnsembleSample",
    "EntryLaw",
    "InvalidPerturbationError",
    "InversionError",
    "MasterOperator",
    "MesoSpectraError",
    "MissingRootError",
    "Model",
    "ModelError",
    "ModelKind",
    "NotSeparatedError",
    "OutlierPrediction",
    "OutlierRoot",
    "PerturbationSpec",
    "RngStream",
    "Separation",
    "Side",
    "SpectralWindow",
    "SpectrumModel",
    "TransformDomainError",
    "check_separation",
    "counting_function",
    "eigensolve",
    "empirical_quantiles",
    "evaluate_d",
    "invert_stieltjes",
    "invert_t_transform",
    "locate_outliers",
    "mp_density",
    "mp_edges",
    "mp_quantiles",
    "mp_t_transform",
    "mp_t_transform_deriv",
    "norm_bound",
    "perturb_additive",
    "perturb_multiplicative",
    "predict",
    "predict_location",
    "predict_projection_norm",
    "predict_whitened_norm",
    "pushforward_map",
    "pushforward_sample",
    "sample_conjugated",
    "sample_ensemble",
    "sample_haar_frame",
    "sample_wigner",
    "sample_wishart",
    "semicircle_density",
    "semicircle_quantiles",
    "semicircle_stieltjes",
    "semicircle_stieltjes_deriv",
    "stieltjes",
    "stieltjes_deriv",
    "t_transform",
    "t_transform_deriv",
    "target_index",
    "__version__",
]
