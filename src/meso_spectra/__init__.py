"""meso_spectra: extreme eigenvalues of low-rank perturbed random matrices.

The package predicts where a rank-M perturbation of a large random matrix
sends its extreme eigenvalues (and how the matching eigenvectors project
onto the perturbation), detects those eigenvalues independently through a
small master-equation operator, and ships a seeded Monte Carlo harness that
confronts the predictions with sampled realizations.

The names exported here are the ones the README and the command line use,
plus the errors they raise; everything else is imported from its submodule
(``spectral_core``, ``transforms``, ``ensembles``, ``master_equation``,
``predictor`` and ``experiments``).

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
    Side,
    SpectrumModel,
    target_index,
)
from .transforms import InversionError, empirical_quantiles
from .ensembles import (
    EntryLaw,
    RngStream,
    perturb_additive,
    perturb_multiplicative,
    sample_conjugated,
    sample_haar_frame,
    sample_wigner,
    sample_wishart,
)
from .master_equation import MasterOperator, MissingRootError, OutlierRoot, locate_outliers
from .predictor import (
    DEFAULT_DELTA,
    predict,
    predict_location,
    predict_projection_norm,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "DEFAULT_DELTA",
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
    "OutlierRoot",
    "PerturbationSpec",
    "RngStream",
    "Side",
    "SpectrumModel",
    "empirical_quantiles",
    "locate_outliers",
    "perturb_additive",
    "perturb_multiplicative",
    "predict",
    "predict_location",
    "predict_projection_norm",
    "sample_conjugated",
    "sample_haar_frame",
    "sample_wigner",
    "sample_wishart",
    "target_index",
    "__version__",
]
