import pytest

import spinsolve as sp

# A census of the large alternating-forms space needs a cap above the
# desk-scale default.
BIG_CFG = sp.DEFAULT_CONFIG.with_(census_max_points=4_000_000)


@pytest.fixture(scope="session")
def big_cfg():
    return BIG_CFG


@pytest.fixture(scope="session")
def hamming32():
    return sp.build(sp.FamilySpec("hamming", {"N": 3, "q": 2}))


@pytest.fixture(scope="session")
def bilinear332():
    return sp.build(sp.FamilySpec("bilinear", {"M": 3, "N": 3, "q": 2}))


@pytest.fixture(scope="session")
def ngon6():
    return sp.build(sp.FamilySpec("ngon", {"n": 6}))


@pytest.fixture(scope="session")
def alternating62():
    return sp.build(sp.FamilySpec("alternating", {"n": 6, "q": 2}))


@pytest.fixture(scope="session")
def alternating72():
    return sp.build(sp.FamilySpec("alternating", {"n": 7, "q": 2}))


@pytest.fixture(scope="session")
def hermitian32():
    return sp.build(sp.FamilySpec("hermitian", {"n": 3, "q": 2}))
