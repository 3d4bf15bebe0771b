"""Shared fixtures."""

from contextlib import contextmanager

import pytest

from etfkit import cyclo


@contextmanager
def _kernel_paths():
    real, seen = cyclo._kernel_primes, []

    def chosen(*args, **kwargs):
        primes = real(*args, **kwargs)
        seen.append(len(primes))
        return primes

    cyclo._kernel_primes = chosen
    try:
        yield seen
    finally:
        cyclo._kernel_primes = real


@pytest.fixture(scope="session")
def kernel_paths():
    """A context manager that lists how many primes each product and basis
    change inside it ran modulo; 0 is one float64 product (or a zero
    result)."""
    return _kernel_paths
