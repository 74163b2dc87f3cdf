from pathlib import Path

import pytest

from cfk.builders import build_library, library_names, load_library
from cfk.complexes import CfkError, serialize, validate
from cfk.invariants import invariants

# invariants(c).as_dict() of every library knot:
# tau, epsilon, a1, a1_surgery, surgery_n, genus_bound, dim H vertical, hook, lhook
REPORTS = {
    "unknot": (0, 0, 0, 0, 1, 0, 1, 1, 1),
    "T(2,3)": (1, 1, 1, 1, 3, 1, 1, 1, 1),
    "-T(2,3)": (-1, -1, -1, -1, 3, 1, 1, 1, 1),
    "4_1": (0, 0, 0, 0, 3, 1, 1, 3, 3),
    "T(2,9)": (4, 1, 1, 1, 9, 4, 1, 1, 1),
    "T(4,5)": (6, 1, 1, 1, 13, 6, 1, 1, 1),
    "T(2,3;2,5)": (4, 1, 1, 1, 9, 4, 1, 1, 1),
    "-T(2,3;2,5)": (-4, -1, -1, -1, 9, 4, 1, 1, 1),
    "conway": (0, 0, 0, 0, 5, 2, 1, 3, 3),
}


# golden text of each library knot, in library order
GOLDEN = Path(__file__).parent / "data" / "library"
FILES = {
    "unknot": "unknot.json",
    "T(2,3)": "t2_3.json",
    "-T(2,3)": "t2_3_mirror.json",
    "4_1": "figure8.json",
    "T(2,9)": "t2_9.json",
    "T(4,5)": "t4_5.json",
    "T(2,3;2,5)": "cable_t23_25.json",
    "-T(2,3;2,5)": "cable_t23_25_mirror.json",
    "conway": "conway.json",
}


def test_builders_write_the_golden_text():
    assert library_names() == list(FILES) == list(build_library())
    for name, file in FILES.items():
        text = (GOLDEN / file).read_bytes()
        assert serialize(load_library(name)).encode("utf-8") == text, name


def test_shipped_trefoil_shape():
    c = load_library("T(2,3)")
    assert len(c.generators) == 3
    assert len(c.differential) == 2


def test_all_library_complexes_validate():
    for name in library_names():
        assert validate(load_library(name)).ok, name


def test_unknown_name():
    with pytest.raises(CfkError, match="unknown knot"):
        load_library("T(7,8)")


def test_library_reports_are_pinned():
    assert set(REPORTS) == set(library_names())
    for name, row in REPORTS.items():
        tau, eps, a1, a1s, n, g, vertical, hook, lhook = row
        assert invariants(load_library(name)).as_dict() == {
            "name": name,
            "tau": tau,
            "epsilon": eps,
            "a1": a1,
            "a1_surgery": a1s,
            "surgery_n": n,
            "genus_bound": g,
            "homology_dims": {"vertical": vertical, "hook": hook, "lhook": lhook},
        }, name
