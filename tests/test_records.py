"""The structural operations against the record-level model in oracles.py.

tensor, mirror, direct_sum and parse . serialize work on a complex's
arrays; each result is read back from its serialized text as sets of
records and compared with the model's own operation on the records of the
inputs.  The cases are the library, random_model seeds 0-299 at sizes 2
and 3, their mirrors, the pairwise tensors of the library and two products
at report scale: T(2,9)^{#3} (729 generators) and -T(2,3;2,5) # T(2,9) #
T(2,9) (405).
"""

import json
import random

import pytest

from cfk.builders import box, random_model
from cfk.complexes import CfkComplex, direct_sum, mirror, parse, serialize, tensor

from oracles import Records, canonical_order, records_mirror, records_sum, records_tensor


@pytest.fixture(scope="module")
def cases(library):
    knots = list(library.values())
    randoms = [random_model(seed, size) for size in (2, 3) for seed in range(300)]
    tensors = [tensor(a, b) for a in knots for b in knots]
    # at report scale: T(2,9)^{#3} and a product of mixed signs
    t29 = library["T(2,9)"]
    large = [tensor(tensor(t29, t29), t29), tensor(tensor(library["-T(2,3;2,5)"], t29), t29)]
    return knots + randoms + [mirror(c) for c in knots + randoms] + tensors + large


def _records(c: CfkComplex) -> Records:
    return Records.of(serialize(c))


def test_tensor_matches_the_record_model(library):
    for a in library.values():
        for b in library.values():
            assert _records(tensor(a, b)) == records_tensor(_records(a), _records(b))


def test_mirror_matches_the_record_model(cases):
    for c in cases:
        m = _records(mirror(c))
        assert (m.generators, m.entries) == records_mirror(_records(c)), c.name


def test_direct_sum_matches_the_record_model(cases):
    # the "s." prefix meets no id of the cases; the box goes first every other case
    pad = box(1, prefix="s.")
    for k, c in enumerate(cases):
        a, b = (c, pad) if k % 2 else (pad, c)
        assert _records(direct_sum(a, b)) == records_sum(_records(a), _records(b)), c.name


def test_parse_of_serialize_matches_the_record_model(cases):
    rng = random.Random(0)
    for c in cases:
        text = serialize(c)
        assert canonical_order(text), c.name
        back = parse(text)
        assert back == c and serialize(back) == text
        # the same records in any order give the same complex, by both routes
        data = json.loads(text)
        rng.shuffle(data["generators"])
        rng.shuffle(data["differential"])
        shuffled = parse(json.dumps(data, ensure_ascii=False))
        assert shuffled == c and _records(shuffled) == Records.of(text), c.name
        gens, entries = list(c.generators), list(c.differential)
        rng.shuffle(gens)
        rng.shuffle(entries)
        assert CfkComplex(c.name, gens, entries) == c
