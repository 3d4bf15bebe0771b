"""Shared fixtures."""

from contextlib import contextmanager

import pytest

from etfkit import cyclo


@contextmanager
def _kernel_paths(force=None):
    real, seen = cyclo._exact_dtype, []

    def chosen(bound):
        seen.append(real(bound) if force is None else force)
        return seen[-1]

    cyclo._exact_dtype = chosen
    try:
        yield seen
    finally:
        cyclo._exact_dtype = real


@pytest.fixture(scope="session")
def kernel_paths():
    """A context manager that lists the dtype (float64 or object) in which
    each product and basis change inside it ran; `force=object` runs them
    all on Python ints, the reference path."""
    return _kernel_paths
