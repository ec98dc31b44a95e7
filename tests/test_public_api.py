"""The package's public names: each is declared once, in the ``__all__`` of the module that defines it."""

import itertools

import pytest

import ckrig
from ckrig import kriging, moments, numerics, validation

MODULES = (kriging, moments, numerics, validation)

PUBLIC_NAMES = [
    "ComplexMoments",
    "ConjugatePair",
    "DegenerateCovariates",
    "DegenerateDesign",
    "DesignMatrix",
    "EmptySample",
    "GramConditionWarning",
    "IndexMoments",
    "KrigingSolution",
    "LengthMismatch",
    "MonteCarloReport",
    "NotPositiveDefinite",
    "Sample",
    "SimulationConfig",
    "SingularSystem",
    "TrendBasis",
    "UnsupportedComplexBasis",
    "build_design",
    "complex_mean",
    "complex_variance",
    "constant_mean_variance",
    "feature_vector",
    "gls_beta",
    "imaginary_standard_error",
    "index_moments",
    "kkt_solve",
    "kriging_weights",
    "monte_carlo_mse",
    "predict",
    "prediction_error_variance",
    "real_standard_error",
    "simulate_process",
    "slope",
    "solve_spd",
    "trend_variance",
    "zero_variance_points",
]


def test_package_exports_the_public_names():
    assert sorted(ckrig.__all__) == PUBLIC_NAMES


def test_no_name_listed_by_two_modules():
    for a, b in itertools.combinations(MODULES, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_listed_name_is_defined_by_its_module(module):
    for name in module.__all__:
        obj = getattr(module, name)
        # The package re-exports the module's object, and the module defines it, not re-exports it.
        assert getattr(ckrig, name) is obj, name
        assert obj.__module__ == module.__name__, name
