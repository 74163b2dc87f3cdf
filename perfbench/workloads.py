"""Seeded inputs for the benchmark workloads, with the answers they must give.

A report workload is a ladder of slots.  Each slot fixes the factor sizes,
genus sum and signs of a tensor product; the seed picks one of the slot's
variants (factor tuples of equal generator count and like cost, so the
cost of a slot hardly moves with the seed) and the order of the factors,
which changes the generator ids and the basis order.  The
expected tau, epsilon and a1 come from the factors' staircase exponents
below, never from the invariant code under test.

The suite workload draws its extra files from ``random_model`` and knows
how many property cases ``run_suite`` must report for them.  Every pass of
a run draws its own inputs from the seed and the pass index.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from functools import reduce

from cfk.builders import AlexanderExponents, random_model, staircase, thin_model
from cfk.complexes import mirror, serialize, tensor

# Alexander exponents of the L-space knots the ladders use, written out so
# that the expected answers do not depend on the builders under test
# (the self-tests compare them with torus_knot_exponents / cable_exponents).
# tau is the top exponent and a1 the top step length, so a1 = 1 throughout.
KNOTS: dict[str, tuple[int, ...]] = {
    "T(2,3)": (1, 0, -1),
    "T(2,5)": (2, 1, 0, -1, -2),
    "T(3,4)": (3, 2, 0, -2, -3),
    "T(2,3;2,5)": (4, 3, 0, -3, -4),
    "T(2,7)": (3, 2, 1, 0, -1, -2, -3),
    "T(3,5)": (4, 3, 1, 0, -1, -3, -4),
    "T(2,3;2,7)": (5, 4, 1, 0, -1, -4, -5),
    "T(4,5)": (6, 5, 2, 0, -2, -5, -6),
    "T(2,9)": (4, 3, 2, 1, 0, -1, -2, -3, -4),
    "T(3,7)": (6, 5, 3, 2, 0, -2, -3, -5, -6),
    "T(2,3;2,9)": (6, 5, 2, 1, 0, -1, -2, -5, -6),
    "T(7,8)": (21, 20, 14, 12, 7, 4, 0, -4, -7, -12, -14, -20, -21),
    "T(8,9)": (28, 27, 20, 18, 12, 9, 4, 0, -4, -9, -12, -18, -20, -27, -28),
    "T(9,10)": (36, 35, 27, 25, 18, 15, 9, 5, 0, -5, -9, -15, -18, -25, -27, -35, -36),
    "T(10,11)": (
        45, 44, 35, 33, 25, 22, 15, 11, 5, 0, -5, -11, -15, -22, -25, -33, -35, -44, -45,
    ),
    "T(11,12)": (
        55, 54, 44, 42, 33, 30, 22, 18, 11, 6, 0,
        -6, -11, -18, -22, -30, -33, -42, -44, -54, -55,
    ),
}

def _negate(factors: tuple[str, ...]) -> tuple[str, ...]:
    return tuple("-" + f for f in factors)


# slot name -> variants; a leading "-" mirrors a factor.  In each ladder the
# slots below and above a middle group of like cost are equal in number and
# well apart from it in cost, so the median op is always a middle op.
REPORT_WIDE: dict[str, list[tuple[str, ...]]] = {
    # above: 9*9*9 = 729 generators, genus 14, the largest matrices
    "pos729": [("T(2,9)", "T(2,9)", "T(3,7)"), ("T(2,9)", "T(2,9)", "T(2,3;2,9)")],
    # middle: 9*9*5 = 405 generators, genus 11-14, positive, neutral and mixed
    "pos405": [("T(2,9)", "T(2,9)", "T(3,4)")],
    "neutral405": [("4_1", "T(2,9)", "T(3,7)"), ("4_1", "T(2,9)", "T(2,3;2,9)")],
    "mixed405": [("-T(2,5)", "T(2,9)", "T(3,7)"), ("-T(2,3;2,5)", "T(2,9)", "T(3,7)")],
    # below: the mirror of the largest, where the tau walk stops at once
    "neg729": [
        _negate(("T(2,9)", "T(3,7)", "T(3,7)")),
        _negate(("T(2,9)", "T(3,7)", "T(2,3;2,9)")),
        _negate(("T(2,9)", "T(2,3;2,9)", "T(2,3;2,9)")),
    ],
}

# middle of report-genus: genus 72-73 on 285-289 generators
_GENUS_MIDDLE = [("T(9,10)", "T(9,10)"), ("T(10,11)", "T(8,9)")]

REPORT_GENUS: dict[str, list[tuple[str, ...]]] = {
    # above: mixed signs, where the positive factor's genus (55 of 100) sets
    # the walk length; genus 43 on 507 generators
    "mixed399": [("T(11,12)", "-T(10,11)")],
    "pos507": [("T(7,8)", "T(7,8)", "T(2,3)")],
    "pos287a": _GENUS_MIDDLE,
    "pos287b": _GENUS_MIDDLE,
    "pos287c": _GENUS_MIDDLE,
    # below: the mirror of a genus-110 product, and a mixed product of
    # negative tau
    "neg441": [("-T(11,12)", "-T(11,12)")],
    "mixed221neg": [("-T(9,10)", "T(7,8)")],
}

# Small ladder for the self-tests: both signs, a neutral factor, mixed signs.
REPORT_TINY: dict[str, list[tuple[str, ...]]] = {
    "pos": [("T(2,3)", "T(2,5)", "T(2,3)")],
    "neg": [("-T(2,3)", "-T(2,5)", "-T(2,3)")],
    "neutral": [("4_1", "T(2,5)")],
    "mixed": [("-T(2,3)", "T(2,5)")],
}

LADDERS = {"report-wide": REPORT_WIDE, "report-genus": REPORT_GENUS, "tiny": REPORT_TINY}


@dataclass(frozen=True)
class Report:
    """One report input as text, and the answers it must give.

    ``epsilon`` and ``a1`` are None when the factor signs are mixed, where
    no sum rule predicts them.
    """

    slot: str
    text: str
    tau: int
    epsilon: int | None
    a1: int | None


def _factor(name: str):
    """The factor's complex, sign, tau and top step length."""
    sign = -1 if name.startswith("-") else 1
    base = name.lstrip("-")
    if base == "4_1":  # a generator plus an acyclic box: tau = epsilon = a1 = 0
        return thin_model(0, 1), 0, 0, 0
    e = KNOTS[base]
    c = staircase(AlexanderExponents(e), name=base)
    return (mirror(c) if sign < 0 else c), sign, sign * e[0], e[0] - e[1]


def build_report(slot: str, factors: tuple[str, ...]) -> Report:
    built = [_factor(f) for f in factors]
    product = reduce(tensor, [c for c, _, _, _ in built])
    tau = sum(t for _, _, t, _ in built)
    signs = {s for _, s, _, _ in built if s}
    if not signs:
        epsilon, a1 = 0, 0
    elif len(signs) == 1:
        (epsilon,) = signs
        a1 = epsilon * min(step for _, s, _, step in built if s)
    else:
        epsilon = a1 = None
    return Report(slot, serialize(product), tau, epsilon, a1)


def report_ladder(workload: str, seed: int, index: int = 0) -> list[Report]:
    """Pass ``index`` of a report workload: every slot once, in a seeded order.

    Each pass of a run draws afresh, so a run averages over several factor
    orders; the basis order they give moves a slot's cost by up to 10 %.
    """
    rng = random.Random(f"{workload}:{seed}:{index}")
    slots = list(LADDERS[workload].items())
    rng.shuffle(slots)
    out = []
    for slot, variants in slots:
        factors = list(rng.choice(variants))
        rng.shuffle(factors)
        out.append(build_report(slot, tuple(factors)))
    return out


# -- suite ------------------------------------------------------------------

SUITE_SEEDS = 500
SUITE_EXTRAS = 3
# an extra file has three factors of three generators each, so that the
# seed hardly moves the cost of the extras (a few % of the op)
SUITE_EXTRA_GENERATORS = 27
# run_suite(seed_count) with no extra files reports this many cases in total
# at the commit that added the benchmark; the extras add extra_cases() each.
SUITE_BASE_CASES = {SUITE_SEEDS: 23474, 2: 10711}


def suite_extras(seed: int, index: int = 0) -> list[str]:
    """Texts of the extra complexes of pass ``index``: random_model(s, size=3)
    for the first values of s from a seeded start that give
    SUITE_EXTRA_GENERATORS generators."""
    out = []
    s = random.Random(f"suite:{seed}:{index}").randrange(10**9)
    while len(out) < SUITE_EXTRAS:
        c = random_model(s, size=3)
        if len(c.generators) == SUITE_EXTRA_GENERATORS:
            out.append(serialize(c))
        s += 1
    return out


def extra_cases(text: str) -> int:
    """Property cases one extra file adds to run_suite, read off its JSON.

    Seven pool-wide properties check it once, surgery-equivalence three
    times, the two small-pool column/hook properties once each, the
    Euler property once when it has Maslov gradings, self-sum once when it
    has at most 20 generators; step-level consistency visits its n hook
    points for 3 cable parameters in 2g+1 slots, and i-filtration each slot.
    """
    data = json.loads(text)
    gens = data["generators"]
    n = len(gens)
    slots = 2 * max(abs(g["alexander"]) for g in gens) + 1
    maslov = all("maslov" in g for g in gens)
    return 7 + 3 + 2 + maslov + (n <= 20) + 3 * n * slots + slots


def expected_suite_cases(seed_count: int, extras: list[str]) -> int:
    return SUITE_BASE_CASES[seed_count] + sum(extra_cases(t) for t in extras)


def write_extras(texts: list[str], directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    paths = []
    for k, text in enumerate(texts):
        path = os.path.join(directory, f"extra{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths.append(path)
    return paths
