import itertools

import pytest

from latcover.catalog import generate_catalog
from latcover.groebner import (
    ELEMENT_NAMES,
    pair_system,
    strong_groebner,
    triple_system,
    verify_pair_lemma,
    verify_triple_lemma,
)


@pytest.fixture(scope="session")
def catalog():
    """The full catalog, generated once for the whole test run."""
    return generate_catalog()


@pytest.fixture(scope="session")
def reduced_bases():
    """The 20 reduced strong Groebner bases, by element combination: the
    ten pairs, then the ten triples, in ``itertools.combinations`` order."""
    bases = {
        combo: strong_groebner(pair_system(*combo))
        for combo in itertools.combinations(ELEMENT_NAMES, 2)
    }
    bases.update(
        (combo, strong_groebner(triple_system(*combo)))
        for combo in itertools.combinations(ELEMENT_NAMES, 3)
    )
    return bases


@pytest.fixture(scope="session")
def pair_verdicts():
    return verify_pair_lemma()


@pytest.fixture(scope="session")
def triple_verdicts():
    return verify_triple_lemma()
