"""Model complexes: staircases, boxes, thin and Conway models, random models.

Staircases realize complexes of L-space knots from the alternating exponents
of their Alexander polynomials.  A cable's exponents are read off a set built
from its base's, and a torus knot is the cable of the unknot.
The random generator composes these shapes, so every model it emits is valid
by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from math import gcd

from .complexes import (
    CfkComplex,
    CfkError,
    DiffEntry,
    Generator,
    ParameterError,
    direct_sum,
    mirror,
    tensor,
)


@dataclass(frozen=True)
class AlexanderExponents:
    """Strictly decreasing, negation-symmetric exponents of even index count.

    >>> AlexanderExponents((1, 0, -1)).exponents
    (1, 0, -1)
    """

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        e = tuple(self.exponents)
        object.__setattr__(self, "exponents", e)
        if not e:
            raise ParameterError("empty exponent list")
        if any(a <= b for a, b in zip(e, e[1:])):
            raise ParameterError(f"exponents not strictly decreasing: {e}")
        if list(e) != [-x for x in reversed(e)]:
            raise ParameterError(f"exponents not symmetric under negation: {e}")
        if len(e) % 2 == 0:
            raise ParameterError(f"need an odd number of exponents, got {len(e)}")


def staircase(exponents: AlexanderExponents, name: str | None = None) -> CfkComplex:
    """Staircase complex of the L-space knot with the given exponents.

    One generator per exponent; each odd position carries a vertical edge
    down the staircase and a horizontal edge (a positive U power) back up.

    >>> staircase(AlexanderExponents((0,))).generators[0].alexander
    0
    """
    e = exponents.exponents
    if name is None:
        name = "staircase[" + ",".join(str(x) for x in e) + "]"
    maslov = [0] * len(e)
    for k in range(1, len(e)):
        if k % 2 == 1:
            maslov[k] = maslov[k - 1] + 1 - 2 * (e[k - 1] - e[k])
        else:
            maslov[k] = maslov[k - 1] - 1
    gens = tuple(Generator(f"b{k}", e[k], maslov[k]) for k in range(len(e)))
    entries = []
    for k in range(1, len(e), 2):
        entries.append(DiffEntry(f"b{k}", f"b{k + 1}", 0))
        entries.append(DiffEntry(f"b{k}", f"b{k - 1}", e[k - 1] - e[k]))
    return CfkComplex(name, gens, tuple(entries))


def unknot() -> CfkComplex:
    return staircase(AlexanderExponents((0,)), name="unknot")


def box(offset: int = 0, prefix: str = "q") -> CfkComplex:
    """Acyclic square summand: four generators, two vertical and two
    horizontal edges.  Contributes nothing to homology in any region."""
    mu = offset
    gens = (
        Generator(f"{prefix}tl", offset + 1, mu + 1),
        Generator(f"{prefix}tr", offset, mu),
        Generator(f"{prefix}bl", offset, mu),
        Generator(f"{prefix}br", offset - 1, mu - 1),
    )
    entries = (
        DiffEntry(f"{prefix}tr", f"{prefix}br", 0),
        DiffEntry(f"{prefix}tl", f"{prefix}bl", 0),
        DiffEntry(f"{prefix}tr", f"{prefix}tl", 1),
        DiffEntry(f"{prefix}br", f"{prefix}bl", 1),
    )
    return CfkComplex(f"box({offset})", gens, entries)


def add_boxes(complex: CfkComplex, offsets: list[int]) -> CfkComplex:
    """The complex plus one box per offset, the k-th with generator prefix q<k>."""
    out = complex
    for k, offset in enumerate(offsets):
        out = direct_sum(out, box(offset, prefix=f"q{k}."))
    return out.renamed(complex.name)


def thin_model(tau: int, boxes: int = 0, box_offset: int = 0) -> CfkComplex:
    """Model complex of a homologically thin knot with the given tau.

    The homology-carrying summand is the (mirrored, for negative tau)
    two-stranded staircase; zero tau leaves a single isolated generator.
    Box summands never change any invariant.
    """
    if tau > 0:
        core = staircase(AlexanderExponents(tuple(range(tau, -tau - 1, -1))))
    elif tau < 0:
        core = mirror(staircase(AlexanderExponents(tuple(range(-tau, tau - 1, -1)))))
    else:
        core = CfkComplex("isolated", (Generator("o", 0, 0),), ())
    out = add_boxes(core, [box_offset] * boxes)
    return out.renamed(f"thin(tau={tau},boxes={boxes})")


def conway_model() -> CfkComplex:
    """Single generator at the origin plus null-homologous boxes at offsets 1, 0 and -1."""
    return add_boxes(CfkComplex("conway", (Generator("o", 0, 0),), ()), [1, 0, -1])


# The largest genus a builder builds, or the suite takes an extra file at:
# builders allocate by genus and some suite properties loop over [-g, g].
MAX_GENUS = 100_000


def torus_knot_exponents(p: int, q: int) -> AlexanderExponents:
    """Alexander exponents of the (p, q) torus knot, the (p, q)-cable of the unknot.

    The unknot's set S_K holds every b >= 0, so the cable's set {jq + pb}
    of cable_exponents is the semigroup <p, q>, whose conductor is 2g.

    >>> torus_knot_exponents(2, 3).exponents
    (1, 0, -1)
    >>> torus_knot_exponents(4, 5).exponents
    (6, 5, 2, 0, -2, -5, -6)
    """
    return cable_exponents(AlexanderExponents((0,)), p, q)


def cable_exponents(base: AlexanderExponents, p: int, q: int) -> AlexanderExponents:
    """Exponents of the (p, q) cable: base polynomial at t^p times the torus factor.

    Shifted by its genus, the base is (1 - t) times the sum of t^b over a
    set S_K (b is in S_K when an odd number of shifted exponents are <= b),
    so at t^p it is (1 - t^p) times the sum of t^pb.  The torus factor is
    (1 - t)(1 - t^pq) / ((1 - t^p)(1 - t^q)), and (1 - t^pq) / (1 - t^q) sums
    t^jq over 0 <= j < p.  So the product is (1 - t) times the sum of
    t^(jq + pb) over j and b in S_K.  As gcd(p, q) = 1, jq + pb fixes j (its
    residue mod p) and so b: the exponents form a set S, and the product
    alternates.  Every cable of a staircase polynomial is one.  S holds
    every m past 2g, and m in [0, 2g] gives the exponent m - g exactly when
    m and m - 1 differ in membership; the signs alternate by themselves.

    >>> cable_exponents(torus_knot_exponents(2, 3), 2, 5).exponents
    (4, 3, 0, -3, -4)
    """
    if p < 1 or q < 1:
        raise ParameterError(f"need positive parameters, got ({p}, {q})")
    if gcd(p, q) != 1:
        raise ParameterError(f"parameters ({p}, {q}) are not coprime")
    g = base.exponents[0]
    genus = p * g + (p - 1) * (q - 1) // 2
    if genus > MAX_GENUS:
        raise ParameterError(f"genus {genus} exceeds the bound {MAX_GENUS}")
    flips = {e + g for e in base.exponents}  # where b enters or leaves S_K
    member = [False] * (2 * genus + 1)  # member[m]: m lies in S
    for j in range(min(p, 2 * genus + 1)):  # past 2g, jq + pb leaves [0, 2g]
        inside = False
        for b, s in enumerate(range(j * q, 2 * genus + 1, p)):
            inside ^= b in flips
            member[s] = inside
    jumps = [m for m in range(2 * genus, -1, -1) if member[m] != (m > 0 and member[m - 1])]
    return AlexanderExponents(tuple(m - genus for m in jumps))


# -- Random models -----------------------------------------------------------


def _random_exponents(rng: random.Random) -> AlexanderExponents:
    count = rng.randint(1, 2)
    positives = sorted(rng.sample(range(1, 7), count), reverse=True)
    return AlexanderExponents(tuple(positives) + (0,) + tuple(-x for x in reversed(positives)))


def random_model(seed: int, size: int = 2) -> CfkComplex:
    """Deterministic valid complex from the grammar: summands are staircases
    or thin models with boxes, tensored together up to ``size`` factors."""
    rng = random.Random(seed)
    factors = []
    for _ in range(rng.randint(1, max(1, size))):
        if rng.random() < 0.5:
            part = staircase(_random_exponents(rng))
            if rng.random() < 0.4:
                part = add_boxes(part, [rng.randint(-2, 2)])
        else:
            part = thin_model(rng.randint(-2, 2), rng.randint(0, 1), rng.randint(-2, 2))
        factors.append(part)
    out = reduce(tensor, factors)
    return out.renamed(f"random({seed},{size})")


# -- Named library -----------------------------------------------------------


def build_library() -> dict[str, CfkComplex]:
    """The named library, in its listing order: the only source of a named complex."""
    t23 = staircase(torus_knot_exponents(2, 3), name="T(2,3)")
    cable = staircase(cable_exponents(torus_knot_exponents(2, 3), 2, 5), name="T(2,3;2,5)")
    return {
        "unknot": unknot(),
        "T(2,3)": t23,
        "-T(2,3)": mirror(t23),
        "4_1": thin_model(0, 1).renamed("4_1"),
        "T(2,9)": staircase(torus_knot_exponents(2, 9), name="T(2,9)"),
        "T(4,5)": staircase(torus_knot_exponents(4, 5), name="T(4,5)"),
        "T(2,3;2,5)": cable,
        "-T(2,3;2,5)": mirror(cable),
        "conway": conway_model(),
    }


def library_names() -> list[str]:
    return list(build_library())


def load_library(name: str) -> CfkComplex:
    """Build a named complex of the library; the names are build_library's."""
    library = build_library()
    if name not in library:
        raise CfkError(f"unknown knot {name!r}; available: {', '.join(library)}")
    return library[name]
