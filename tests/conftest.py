"""Shared fixtures: the expensive objects are computed once per session.

The Feigenbaum fixed point, the golden rotation number, the logistic-type
family, and the unstable-manifold points f*_j are reused across modules;
everything else is cheap enough to build inside the tests.
"""

import numpy as np
import pytest

from qprenorm_lab import (
    DomainConfig,
    RotationNumber,
    feigenbaum_fixed_point,
    flm_family,
    unstable_manifold_points,
)


def pytest_configure(config):
    # a cast that discards an imaginary part fails the test; the warning
    # class is numpy.exceptions.ComplexWarning on numpy 2 and
    # numpy.ComplexWarning on numpy 1.24
    cls = getattr(np, "exceptions", np).ComplexWarning
    config.addinivalue_line(
        "filterwarnings", f"error::{cls.__module__}.{cls.__name__}")


@pytest.fixture(scope="session")
def domain():
    return DomainConfig()


@pytest.fixture(scope="session")
def fp(domain):
    return feigenbaum_fixed_point(domain)


@pytest.fixture(scope="session")
def golden():
    return RotationNumber.golden()


@pytest.fixture(scope="session")
def flm():
    return flm_family()


@pytest.fixture(scope="session")
def stars(fp):
    # f*_1 .. f*_4 on the unstable manifold, f*_j superstable of period 2^j
    return unstable_manifold_points(fp, 4)
