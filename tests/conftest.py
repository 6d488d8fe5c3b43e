import pytest

from latcover.catalog import generate_catalog
from latcover.groebner import certificate_bases, verify_all


@pytest.fixture(scope="session")
def catalog():
    """The full catalog, generated once for the whole test run."""
    return generate_catalog()


@pytest.fixture(scope="session")
def reduced_bases():
    """The 20 reduced strong Groebner bases, by element combination: the
    ten pairs, then the ten triples, in ``itertools.combinations`` order."""
    return certificate_bases()


@pytest.fixture(scope="session")
def verdicts(reduced_bases):
    """The 20 certificate verdicts, judged on the session's bases."""
    return verify_all(reduced_bases)


@pytest.fixture(scope="session")
def pair_verdicts(verdicts):
    return [v for v in verdicts if len(v.elements) == 2]


@pytest.fixture(scope="session")
def triple_verdicts(verdicts):
    return [v for v in verdicts if len(v.elements) == 3]
