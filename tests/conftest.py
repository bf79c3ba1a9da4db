import pytest
from hypothesis import settings

from jjshadow.geometry import EvaporatorGeometry, JunctionDesign, Variant, WaferPoint

# A failing property prints its @reproduce_failure line, so the failing
# example can be replayed from the log.  Example counts and randomness stay
# as each test sets them.
settings.register_profile("jjshadow", print_blob=True)
settings.load_profile("jjshadow")


@pytest.fixture
def geom():
    return EvaporatorGeometry()


@pytest.fixture
def origin():
    return WaferPoint(0.0, 0.0)


@pytest.fixture
def design_200():
    return JunctionDesign(Variant.MANHATTAN, 200.0, 200.0)
