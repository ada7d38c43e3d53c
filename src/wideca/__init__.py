"""Correspondence analysis and concentration statistics for very wide
nonnegative matrices, with seeded generators for the supported evaluation
settings and a power-law exponent estimator."""

__version__ = "0.1.0"

from .contributions import (ContributionReport, absolute_contribution,
                            chi2_distance_to_centroid, concentration_report,
                            relative_contribution)
from .engine import (FactorDecomposition, FrequencyModel, Profile,
                     build_frequency_model, column_projections, decompose,
                     profile)
from .errors import NumericalError, ParseError, ValidationError
from .generators import (EmpiricalMarginals, ParametricMarginals,
                         embed_signal, gen_powerlaw_boolean,
                         gen_randomwalk_signal, gen_uniform)
from .powerlaw import PowerLawFit, ccdf, fit_exponent, fit_loglog
from .store import (CountMatrix, SignalSeries, column_sums, load_matrix,
                    load_signal, save_matrix, save_signal)

__all__ = [
    "ContributionReport", "CountMatrix", "EmpiricalMarginals",
    "FactorDecomposition", "FrequencyModel", "NumericalError",
    "ParametricMarginals", "ParseError", "PowerLawFit", "Profile",
    "SignalSeries", "ValidationError", "absolute_contribution",
    "build_frequency_model", "ccdf", "chi2_distance_to_centroid",
    "column_projections", "column_sums", "concentration_report", "decompose",
    "embed_signal", "fit_exponent", "fit_loglog", "gen_powerlaw_boolean",
    "gen_randomwalk_signal", "gen_uniform", "load_matrix", "load_signal",
    "profile", "relative_contribution", "save_matrix", "save_signal",
]
