"""Shared fixtures."""

from contextlib import contextmanager

import pytest

from etfkit import cyclo

# The CycMatrix members that no program path calls.  They are kept for
# their own tests (test_cyclo.py, test_kernel.py) and because
# perfbench/tracing.py wraps them by name; every other test builds its
# inputs with CycMatrix(order, array) and computes its references on
# tests/oracle.py, so there they raise.
UNREACHED = ("__add__", "__sub__", "__neg__", "__matmul__", "scalar_mul",
             "entrywise_mul", "adjoint", "transpose", "abs_squared_entries",
             "vstack", "hstack", "block_diag", "identity", "diagonal",
             "from_scalars", "entry")
ALGEBRA_TESTS = ("test_cyclo", "test_kernel")


class UnreachedMember(RuntimeError):
    """A test outside the algebra's own tests called a guarded member."""


def _raising(name: str):
    def guarded(*args, **kwargs):
        raise UnreachedMember(
            f"CycMatrix.{name} is reached only by its own tests and by "
            f"perfbench's tracer; build with CycMatrix(order, array) and "
            f"compute references on tests/oracle.py")
    return guarded


@pytest.fixture(autouse=True)
def _guard_unreached(request, monkeypatch):
    """Outside test_cyclo.py and test_kernel.py, each member of UNREACHED
    raises; the attribute stays in CycMatrix.__dict__ and is restored
    after the test."""
    if request.module.__name__.rpartition(".")[2] not in ALGEBRA_TESTS:
        for name in UNREACHED:
            monkeypatch.setattr(cyclo.CycMatrix, name, _raising(name))
    yield


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
