"""Shared fixtures: spectral measures are expensive to build, so every
configuration used by more than one test is session scoped."""

import numpy as np
import pytest

from slhyper.operator import builtin_operator
from slhyper.spectral import build_spectral_measure


@pytest.fixture(scope="session")
def sm_cosine():
    return build_spectral_measure(builtin_operator("cosine"),
                                  L=16.0, N=6144, lambda_max=1600.0)


@pytest.fixture(scope="session")
def sm_cosine_512():
    return build_spectral_measure(builtin_operator("cosine"),
                                  L=16.0, N=512, lambda_max=100.0)


@pytest.fixture(scope="session")
def sm_cosine_wide():
    return build_spectral_measure(builtin_operator("cosine"),
                                  L=40.0, N=2048, lambda_max=100.0)


@pytest.fixture(scope="session")
def sm_cosine_shift():
    return build_spectral_measure(builtin_operator("cosine"),
                                  L=20.0, N=4096, lambda_max=1600.0)


@pytest.fixture(scope="session")
def sm_cosine_dense():
    return build_spectral_measure(builtin_operator("cosine"),
                                  L=20.0, N=4096, lambda_max=10000.0)


@pytest.fixture(scope="session")
def sm_bessel():
    return build_spectral_measure(builtin_operator("bessel?alpha=0.5"),
                                  L=12.0, N=4096, lambda_max=1600.0)


@pytest.fixture(scope="session")
def sm_bessel_conc():
    return build_spectral_measure(builtin_operator("bessel?alpha=0.5"),
                                  L=8.0, N=6144, lambda_max=4.0e4)


@pytest.fixture(scope="session")
def sm_whittaker():
    return build_spectral_measure(builtin_operator("whittaker?alpha=0.25&kappa=1.0"),
                                  L=12.0, N=4096, lambda_max=1600.0)
