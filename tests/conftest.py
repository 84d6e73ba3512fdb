import pytest

from negir.corpus import default_stopwords
from negir.negation import default_lexicon


@pytest.fixture(scope="session")
def stopwords():
    return default_stopwords()


@pytest.fixture(scope="session")
def lexicon():
    return default_lexicon()

