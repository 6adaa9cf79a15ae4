import contextlib
import os
import warnings
from pathlib import Path

import pytest
from hypothesis import settings

import rdlab as R

# on a failing example the hypothesis plugin imports this module to write a
# patch; under filterwarnings = error a DeprecationWarning from one of its
# imports (mypy_extensions, through libcst) would turn the failure report
# into an INTERNALERROR, so it is imported once here with that warning off
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

# child processes (python -m rdlab.cli) import the rdlab under test
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(Path(R.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]))

# fixed examples keep the suite reproducible and its run time steady
settings.register_profile("rdlab", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("rdlab")
# more examples, drawn afresh on each run: CI runs tests/test_balls.py and
# the property tests that its "Property tests on fresh examples" step names
# once more under --hypothesis-profile rdlab-explore, past tier-1's fixed
# examples
settings.register_profile("rdlab-explore", derandomize=False, deadline=None,
                          max_examples=400, database=None)


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
