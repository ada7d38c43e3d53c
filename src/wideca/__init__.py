"""Correspondence analysis and concentration statistics for very wide
nonnegative matrices, with seeded generators for the supported evaluation
settings and a power-law exponent estimator."""

__version__ = "0.1.0"

from .contributions import ContributionReport, analyze, concentration_report
from .engine import (FactorDecomposition, FrequencyModel,
                     build_frequency_model, decompose)
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
    "ParametricMarginals", "ParseError", "PowerLawFit", "SignalSeries",
    "ValidationError", "analyze", "build_frequency_model", "ccdf",
    "column_sums", "concentration_report", "decompose", "embed_signal",
    "fit_exponent", "fit_loglog", "gen_powerlaw_boolean",
    "gen_randomwalk_signal", "gen_uniform", "load_matrix", "load_signal",
    "save_matrix", "save_signal",
]
