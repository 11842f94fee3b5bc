import pytest

from pathgauge.complexes import build_tree
from pathgauge.instances import theta_complex, theta_holospec, wedge_complex

from .builders import path3_complex, theta4_complex, theta_gauge, wedge_gauge, wedge_holospec


@pytest.fixture(scope="session")
def theta():
    return theta_complex()


@pytest.fixture(scope="session")
def theta4():
    return theta4_complex()


@pytest.fixture(scope="session")
def wedge():
    return wedge_complex()


@pytest.fixture(scope="session")
def path3():
    return path3_complex()


@pytest.fixture(scope="session")
def theta_tree(theta):
    return build_tree(theta)


@pytest.fixture(scope="session")
def wedge_tree(wedge):
    return build_tree(wedge)


@pytest.fixture(scope="session")
def theta_field():
    return theta_gauge()


@pytest.fixture(scope="session")
def wedge_field():
    return wedge_gauge()


@pytest.fixture(scope="session")
def theta_spec():
    return theta_holospec()


@pytest.fixture(scope="session")
def wedge_spec():
    return wedge_holospec()
