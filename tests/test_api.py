import wideca

PUBLIC = {
    "ContributionReport", "CountMatrix", "EmpiricalMarginals",
    "FactorDecomposition", "FrequencyModel", "NumericalError",
    "ParametricMarginals", "ParseError", "PowerLawFit", "SignalSeries",
    "ValidationError", "analyze", "build_frequency_model", "ccdf", "column_sums",
    "concentration_report", "decompose", "embed_signal", "fit_exponent",
    "fit_loglog", "gen_powerlaw_boolean", "gen_randomwalk_signal",
    "gen_uniform", "load_matrix", "load_signal", "save_matrix", "save_signal",
}


def test_public_surface():
    assert len(wideca.__all__) == len(PUBLIC) == 27
    assert set(wideca.__all__) == PUBLIC
    for name in wideca.__all__:
        assert getattr(wideca, name) is not None, name
