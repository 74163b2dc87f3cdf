"""Fresh generator ids leave no memory held once their complexes are gone.

Ids are interned where interned strings are mortal (complexes._intern).  On
Python 3.12 interned strings are immortal, so interning every fresh label
kept each one for the life of the process: there the check below read
2.5 MB held where the bound is 0.25 MB.  This file needs only the standard
library, so ``python tests/test_fresh_ids.py`` runs the same check
without pytest.
"""

import gc
import tracemalloc

from cfk.builders import staircase, torus_knot_exponents
from cfk.complexes import CfkComplex, Generator, parse, serialize, tensor

# bytes that ROUNDS rounds may leave held; each round forms 162 ids that no
# earlier round formed, so rounds that kept them would hold megabytes
ROUNDS, BOUND = 200, 256 * 1024


def _small(snapshot: tracemalloc.Snapshot) -> int:
    return sum(trace.size for trace in snapshot.traces if trace.size < 4096)


def held_after_fresh_ids(rounds: int = ROUNDS) -> int:
    """Bytes in small blocks still allocated after ``rounds`` tensors and
    parses, each of which forms 81 ids that no earlier round formed."""
    t29 = staircase(torus_knot_exponents(2, 9), name="T(2,9)")
    square = tensor(t29, t29)
    text = serialize(square)  # every id holds one "⊗", the name none

    def churn(start: int) -> None:
        for k in range(start, start + rounds):
            tensor(square, CfkComplex("one", [Generator(f"t{k}", 0)]))
            parse(text.replace("⊗", f"⊗p{k}."))

    # Only blocks under 4 KB count: a kept id is one small block, while a
    # table that a dict (such as the interned strings') rebuilds meanwhile
    # is one large block, and the table it frees may predate the tracing.
    tracemalloc.start()
    try:
        churn(-rounds)
        gc.collect()
        before = _small(tracemalloc.take_snapshot())
        churn(0)
        gc.collect()
        return _small(tracemalloc.take_snapshot()) - before
    finally:
        tracemalloc.stop()


def test_fresh_ids_leave_no_memory_held():
    held = held_after_fresh_ids()
    assert held < BOUND, f"{held} bytes held after {ROUNDS} rounds of fresh ids"


if __name__ == "__main__":
    held = held_after_fresh_ids()
    print(f"held after {ROUNDS} rounds of fresh ids: {held} bytes (bound {BOUND})")
    assert held < BOUND, f"{held} bytes held, bound {BOUND}"
