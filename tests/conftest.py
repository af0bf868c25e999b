import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from dialg import census, enumerate_valid_dialgebras

# One hypothesis profile for the suite: reproducible runs that leave no
# example database behind; tests set only their example counts.
settings.register_profile("dialg", deadline=None, derandomize=True, database=None)
settings.load_profile("dialg")

# Hypothesis also caches the constants it reads from local source files, at
# collection time; a temporary home keeps that out of the working tree.
_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="dialg-hypothesis-")
    set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


@pytest.fixture(scope="session")
def census_gf2():
    return census(2)


@pytest.fixture(scope="session")
def census_gf3():
    return census(3)


@pytest.fixture(scope="session")
def valid_gf2():
    return list(enumerate_valid_dialgebras(2))


@pytest.fixture(scope="session")
def valid_gf3():
    return list(enumerate_valid_dialgebras(3))
