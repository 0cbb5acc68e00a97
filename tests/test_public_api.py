"""Sanity tests over the public API surface."""

import importlib

import pytest

import repro


PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.datasets",
    "repro.engine",
    "repro.events",
    "repro.geo",
    "repro.geocode",
    "repro.geodata",
    "repro.grouping",
    "repro.live",
    "repro.pipelines",
    "repro.serving",
    "repro.storage",
    "repro.streaming",
    "repro.text",
    "repro.twitter",
    "repro.yahooapi",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    """Every name in __all__ must be importable from its package."""
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__")
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name} missing"
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_unique(package_name):
    package = importlib.import_module(package_name)
    names = list(package.__all__)
    assert len(names) == len(set(names)), f"{package_name}.__all__ has duplicates"


def test_version():
    assert repro.__version__ == "1.0.0"


def test_error_hierarchy():
    from repro import errors

    leaf_errors = [
        errors.InvalidCoordinateError,
        errors.UnknownRegionError,
        errors.GeocodingError,
        errors.RateLimitExceededError,
        errors.ServiceUnavailableError,
        errors.MalformedResponseError,
        errors.DuplicateKeyError,
        errors.NotFoundError,
        errors.InsufficientDataError,
        errors.ConfigurationError,
    ]
    for leaf in leaf_errors:
        assert issubclass(leaf, errors.ReproError)
    assert issubclass(errors.RateLimitExceededError, errors.ApiError)
    assert issubclass(errors.DuplicateKeyError, errors.StorageError)


def test_rate_limit_error_carries_retry_after():
    from repro.errors import RateLimitExceededError

    error = RateLimitExceededError(retry_after_s=12.5)
    assert error.retry_after_s == 12.5
    assert "12.5" in str(error)
