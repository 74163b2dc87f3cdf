import sys

import pytest

from cfk.builders import (
    build_library,
    cable_exponents,
    staircase,
    torus_knot_exponents,
    unknot,
)
from cfk.complexes import mirror


@pytest.fixture(scope="session")
def library():
    return build_library()


@pytest.fixture(scope="session")
def trefoil():
    return staircase(torus_knot_exponents(2, 3), name="T(2,3)")


@pytest.fixture(scope="session")
def left_trefoil(trefoil):
    return mirror(trefoil)


@pytest.fixture(scope="session")
def t29():
    return staircase(torus_knot_exponents(2, 9), name="T(2,9)")


@pytest.fixture(scope="session")
def t45():
    return staircase(torus_knot_exponents(4, 5), name="T(4,5)")


@pytest.fixture(scope="session")
def cable_t23_25():
    return staircase(
        cable_exponents(torus_knot_exponents(2, 3), 2, 5), name="T(2,3;2,5)"
    )


@pytest.fixture(scope="session")
def the_unknot():
    return unknot()


def _clear_cfk_caches() -> list:
    """Clear every functools cache in the loaded cfk modules; return them by name.

    Caches are found by their cache_clear attribute, so one that is added or
    renamed is cleared without naming it here.
    """
    caches = {}
    for name, module in list(sys.modules.items()):
        if name == "cfk" or name.startswith("cfk."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    caches[id(value)] = value
    for cache in caches.values():
        cache.cache_clear()
    return sorted(caches.values(), key=lambda f: f.__qualname__)


@pytest.fixture
def cold_caches():
    """Start the test with every cfk cache empty; call the value to empty them again."""
    _clear_cfk_caches()
    return _clear_cfk_caches
