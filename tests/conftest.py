import os
from pathlib import Path

import pytest
from hypothesis import settings

import rdlab as R

# child processes (python -m rdlab.cli) import the rdlab under test
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(R.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]))

# fixed examples keep the suite reproducible and its run time steady
settings.register_profile("rdlab", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("rdlab")


@pytest.fixture(scope="session")
def z_index():
    return R.enumerate_balls(R.FreeAbelian(1), 257)


@pytest.fixture(scope="session")
def z2_index():
    return R.enumerate_balls(R.FreeAbelian(2), 48)


@pytest.fixture(scope="session")
def h3_index():
    return R.enumerate_balls(R.DiscreteHeisenberg(), 10)


@pytest.fixture(scope="session")
def f2_index():
    return R.enumerate_balls(R.FreeGroup(2), 8)


@pytest.fixture(scope="session")
def c12_index():
    return R.enumerate_balls(R.FiniteCyclic(12), 10)


def dense_by_sphere(element):
    """Group dense coefficients by word length: {length: {value set}, counts}."""
    values = {}
    counts = {}
    for g, c in element.coeffs.items():
        values.setdefault(len(g), []).append(c)
        counts[len(g)] = counts.get(len(g), 0) + 1
    return values, counts
