"""The filtration pieces behind the surgery-route cutoff walk in oracles.py."""

import pytest

from cfk.homology import realize
from cfk.regions import Region, RegionError

from oracles import filtration_quotient, filtration_subcomplex, located, with_filtration


def test_filtration_pieces(trefoil):
    x = located(trefoil, Region("vertical", 0))
    y = with_filtration(x, (1, 1, 0))
    assert filtration_subcomplex(y, 0).dim == 1
    assert filtration_quotient(y, 1).dim == 2


def test_filtration_required(trefoil):
    x = realize(trefoil, Region("vertical", 0))
    with pytest.raises(RegionError):
        filtration_subcomplex(x, 0)
