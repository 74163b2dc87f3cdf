"""Finitely generated bifiltered chain complexes over the two-element field.

A complex is a finite set of generators, each carrying an Alexander grading
(and optionally a Maslov grading), together with differential entries of the
form ``d(src) += U^k * dst``.  A generator ``x`` occupies the lattice points
``[x, i, i + A(x)]``; multiplication by U shifts a point to ``(i-1, j-1)``.
All structural operations return new immutable values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from json.encoder import encode_basestring
from typing import NamedTuple


class CfkError(Exception):
    """Base error for this package."""


class ParseError(CfkError):
    """A malformed complex: bad JSON syntax or types in its text (parse), or a
    broken structural rule (raised by the CfkComplex constructor)."""


class ValidationError(CfkError):
    """A well-formed complex violating an algebraic axiom (see validate)."""


class ParameterError(CfkError, ValueError):
    """A numeric parameter outside the range where an operation is defined."""


class Generator(NamedTuple):
    id: str
    alexander: int
    maslov: int | None = None


class DiffEntry(NamedTuple):
    """One differential term: d(src) contains U^upower * dst."""

    src: str
    dst: str
    upower: int


@dataclass(frozen=True)
class CfkComplex:
    """Immutable, well-formed complex; generators and entries in canonical order.

    Canonical order is (alexander descending, id ascending) for generators
    and (src, dst, upower) for differential entries, matching the on-disk
    serialization.  Construction enforces the structural rules, so no other
    code checks them: ids are unique, entries name known generators, U
    powers are at least 0, no entry occurs twice, and Maslov gradings are
    given on all generators or on none.  It raises ParseError naming the
    first offender.  The name is a label: equality and the hash are
    structural, so the caches keyed on a complex share entries across names.
    """

    name: str = field(compare=False)
    generators: tuple[Generator, ...] = field(default_factory=tuple)
    differential: tuple[DiffEntry, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        gens = tuple(sorted(self.generators, key=lambda g: (-g.alexander, g.id)))
        entries = tuple(sorted(self.differential))
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "differential", entries)
        ids: set[str] = set()
        bare = bool(gens) and gens[0].maslov is None
        for g in gens:
            if g.id in ids:
                raise ParseError(f"duplicate generator id {g.id!r}")
            if (g.maslov is None) != bare:
                raise ParseError("maslov grading present on some generators but not all")
            ids.add(g.id)
        previous = None
        for e in entries:
            key = src, dst, upower = e.src, e.dst, e.upower
            if src not in ids:
                raise ParseError(f"entry {src}->{dst}: unknown generator {src!r}")
            if dst not in ids:
                raise ParseError(f"entry {src}->{dst}: unknown generator {dst!r}")
            if upower < 0:
                raise ParseError(f"entry {src}->{dst}: negative upower {upower}")
            if key == previous:  # sorted, so a repeated entry is adjacent
                raise ParseError(f"duplicate entry {src}->{dst} U^{upower}")
            previous = key

    @cached_property
    def _hash(self) -> int:
        return hash((self.generators, self.differential))

    def __hash__(self) -> int:
        # Complexes key the lru caches, so hash the generator tuples once.
        return self._hash

    def __getstate__(self) -> dict:
        # String hashes differ between processes: never pickle a cached one.
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    @cached_property
    def gradings(self) -> tuple[int, ...]:
        """The Alexander grading of each generator, by index."""
        return tuple(g.alexander for g in self.generators)

    @cached_property
    def blocks(self) -> tuple[tuple[int, int, int], ...]:
        """(grading, start, stop) per Alexander grading, in generator order:
        generators are sorted by descending grading, so each grading holds
        one contiguous index range."""
        out, start = [], 0
        for a, run in groupby(self.gradings):
            stop = start + sum(1 for _ in run)
            out.append((a, start, stop))
            start = stop
        return tuple(out)

    @cached_property
    def arrows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The entries out of each generator, by index, as (dst index, upower)."""
        index = {g.id: k for k, g in enumerate(self.generators)}
        out: list[list[tuple[int, int]]] = [[] for _ in self.generators]
        for e in self.differential:
            out[index[e.src]].append((index[e.dst], e.upower))
        return tuple(map(tuple, out))

    @property
    def maslov_present(self) -> bool:
        return bool(self.generators) and self.generators[0].maslov is not None

    @cached_property
    def genus_bound(self) -> int:
        """max |A(x)|; a valid complex has |tau| <= g and |a1| <= 2g."""
        return max((abs(g.alexander) for g in self.generators), default=0)


@dataclass
class ValidationReport:
    """Pass/fail per algebraic axiom, with entry-level error messages.

    validate is the one place that checks these axioms: realize, tensor,
    direct_sum and the invariants trust them.  ``checks`` only contains the
    checks that actually ran: maslov-rule runs only on a complex with Maslov
    gradings, and vertical-homology-rank only once alexander-rule and
    d-squared have passed, since the column is realized only then.  The
    structural rules are not here: a CfkComplex keeps them from
    construction on.
    """

    checks: dict[str, bool] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_on_error(self) -> None:
        if self.errors:
            raise ValidationError("; ".join(self.errors))

    def _record(self, name: str, problems: list[str]) -> None:
        self.checks[name] = not problems
        self.errors.extend(problems)


def _named(gens, terms: list[tuple[int, int, int]]) -> list[tuple[str, str, int, tuple]]:
    """(src id, dst id, upower, (src, dst)) per term that breaks a rule, in
    the differential's order: ids are looked up for these terms only."""
    return sorted((gens[s].id, gens[d].id, u, (s, d)) for s, d, u in terms)


def validate(complex: CfkComplex) -> ValidationReport:
    """Check the algebraic axioms of a complex and report per-axiom results.

    The Alexander and Maslov rules, d^2 = 0, and one-dimensional homology of
    the column.  The Alexander-grading symmetry of the multiset {A(x)} is
    reported as a warning only: subquotient machinery does not rely on it.
    """
    rep = ValidationReport()
    gens, alex, arrows = complex.generators, complex.gradings, complex.arrows
    m = [g.maslov for g in gens] if complex.maslov_present else None
    # One pass over the entries checks both rules and d^2 = 0 as U-monomials:
    # every composite term occurs an even number of times, so each (source,
    # U power)'s XOR bitset of targets ends at zero.  This is the symbolic
    # check, independent of any lattice realization.
    rises, bad, survivors = [], [], []
    for s, out in enumerate(arrows):
        parity: dict[int, int] = {}
        for d, u in out:
            if alex[d] > alex[s] + u:
                rises.append((s, d, u))
            if m is not None and m[d] != m[s] - 1 + 2 * u:
                bad.append((s, d, u))
            for t, v in arrows[d]:
                parity[u + v] = parity.get(u + v, 0) ^ 1 << t
        survivors += [(s, t, u) for u, bits in parity.items() if bits
                      for t in range(bits.bit_length()) if bits >> t & 1]
    rep._record("alexander-rule", [
        f"entry {s}->{d} U^{u}: alexander grading rises" for s, d, u, _ in _named(gens, rises)
    ])
    if m is not None:
        rep._record("maslov-rule", [
            f"entry {s}->{d} U^{u}: maslov {m[k[1]]} != {m[k[0]] - 1 + 2 * u}"
            for s, d, u, k in _named(gens, bad)
        ])
    rep._record("d-squared", [
        f"d^2 term {s}->{t} U^{u} survives" for s, t, u, _ in _named(gens, survivors)
    ])

    if rep.checks["alexander-rule"] and rep.checks["d-squared"]:
        from .homology import column

        dim = column(complex).homology.dimension
        rep._record(
            "vertical-homology-rank",
            [] if dim == 1 else [f"vertical homology has dimension {dim}, expected 1"],
        )

    sizes = {a: stop - start for a, start, stop in complex.blocks}
    if any(sizes.get(-a) != size for a, size in sizes.items()):
        rep.warnings.append("alexander gradings are not symmetric under negation")

    return rep


def _wrapped(name: str) -> bool:
    """Whether a name that is not a mirror's mirrors to -( name ): it balances its
    parentheses and starts with '-' or '(' or joins names by ' # ' or ' + ' outside them."""
    depth, joined = 0, name.startswith(("-", "("))
    for k, ch in enumerate(name):
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            return False
        joined |= depth == 0 and name.startswith((" # ", " + "), k)
    return joined and depth == 0


def mirror(complex: CfkComplex) -> CfkComplex:
    """Dual complex: reverse every entry, negate both gradings.

    Reversing an entry keeps its U power, so the grading rules hold again after
    negation; mirror twice gives back an equal complex and any balanced name, as a
    name is a mirror's when it is -X, X not wrapped, or -(Y), Y wrapped and not a
    mirror's (peeled -( ) layers flip that), and A # B mirrors to -(A # B)."""
    name, layers = complex.name, 0
    while name.startswith("-(") and name.endswith(")") and _wrapped(name[2:-1]):
        name, layers = name[2:-1], layers + 1
    if (name.startswith("-") and not _wrapped(name[1:])) != (layers % 2 == 1):
        name = complex.name[2:-1] if layers else complex.name[1:]
    else:
        name = f"-({complex.name})" if _wrapped(complex.name) else "-" + complex.name
    gens = tuple(
        Generator(g.id, -g.alexander, None if g.maslov is None else -g.maslov)
        for g in complex.generators
    )
    entries = tuple(DiffEntry(e.dst, e.src, e.upower) for e in complex.differential)
    return CfkComplex(name, gens, entries)


def tensor(a: CfkComplex, b: CfkComplex) -> CfkComplex:
    """Tensor product over the U ring; models the connect sum.

    Generators are pairs x⊗y with gradings added; the differential follows
    the Leibniz rule (no signs over the two-element field).  Pairs whose ids
    collide raise ParseError at construction.
    """
    keep_maslov = a.maslov_present and b.maslov_present

    def pair(x: Generator, y: Generator) -> Generator:
        m = x.maslov + y.maslov if keep_maslov else None
        return Generator(f"{x.id}⊗{y.id}", x.alexander + y.alexander, m)

    gens = tuple(pair(x, y) for x in a.generators for y in b.generators)
    entries = []
    for e in a.differential:
        for y in b.generators:
            entries.append(DiffEntry(f"{e.src}⊗{y.id}", f"{e.dst}⊗{y.id}", e.upower))
    for e in b.differential:
        for x in a.generators:
            entries.append(DiffEntry(f"{x.id}⊗{e.src}", f"{x.id}⊗{e.dst}", e.upower))
    return CfkComplex(f"{a.name} # {b.name}", gens, tuple(entries))


def direct_sum(a: CfkComplex, b: CfkComplex) -> CfkComplex:
    """Disjoint union of two complexes.

    The sum is a knot complex exactly when one summand carries the
    one-dimensional vertical homology and the other is vertically acyclic;
    like tensor, direct_sum does not check that, and validate reports the
    sum's vertical-homology-rank.  Summands that share a generator id raise
    ParseError at construction.
    """
    return CfkComplex(
        f"{a.name} + {b.name}",
        a.generators + b.generators,
        a.differential + b.differential,
    )


def _json_list(items: list[str]) -> str:
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def serialize(complex: CfkComplex) -> str:
    """Canonical text form; parse . serialize is the identity on canonical text.

    The text is exactly json.dumps(..., ensure_ascii=False, indent=2) + "\n"
    of the object with keys name, generators (id, alexander, maslov when
    present) and differential (from, to, upower), written directly: strings
    go through json's own escaping, integers are written in decimal.
    """
    q = encode_basestring
    gens = [
        f'{{\n      "id": {q(g.id)},\n      "alexander": {g.alexander}'
        + ("" if g.maslov is None else f',\n      "maslov": {g.maslov}')
        + "\n    }"
        for g in complex.generators
    ]
    entries = [
        f'{{\n      "from": {q(e.src)},\n      "to": {q(e.dst)},'
        f'\n      "upower": {e.upower}\n    }}'
        for e in complex.differential
    ]
    return (
        f'{{\n  "name": {q(complex.name)},\n  "generators": {_json_list(gens)},'
        f'\n  "differential": {_json_list(entries)}\n}}\n'
    )


def parse(text: str) -> CfkComplex:
    """Read a complex from its text form.

    Raises ParseError for bad JSON syntax and for fields of the wrong type;
    the constructor then raises it for broken structure (duplicate ids,
    entries naming unknown generators, ...).  Algebraic axioms are checked
    separately by validate().
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    except ValueError as e:  # an integer past the interpreter's digit limit
        raise ParseError(f"number out of range: {e}") from None

    # type(x) is int, not isinstance: JSON true and false are bools, a
    # subclass of int.  Each message is built only when its check fails.
    if type(data) is not dict:
        raise ParseError("top level must be an object")
    for key in ("name", "generators", "differential"):
        if key not in data:
            raise ParseError(f"missing field {key!r}")
    if type(data["name"]) is not str:
        raise ParseError("field 'name' must be a string")
    for key in ("generators", "differential"):
        if type(data[key]) is not list:
            raise ParseError(f"field {key!r} must be a list")

    gens = []
    for k, raw in enumerate(data["generators"]):
        if type(raw) is not dict:
            raise ParseError(f"generator {k}: must be an object")
        gid, alexander, m = raw.get("id"), raw.get("alexander"), raw.get("maslov")
        if type(gid) is not str:
            raise ParseError(f"generator {k}: field 'id' must be a string")
        if type(alexander) is not int:
            raise ParseError(f"generator {k}: field 'alexander' must be an integer")
        if m is not None and type(m) is not int:
            raise ParseError(f"generator {k}: field 'maslov' must be an integer")
        gens.append(Generator(gid, alexander, m))

    entries = []
    for k, raw in enumerate(data["differential"]):
        if type(raw) is not dict:
            raise ParseError(f"differential entry {k}: must be an object")
        src, dst, upower = raw.get("from"), raw.get("to"), raw.get("upower")
        if type(src) is not str:
            raise ParseError(f"differential entry {k}: field 'from' must be a string")
        if type(dst) is not str:
            raise ParseError(f"differential entry {k}: field 'to' must be a string")
        if type(upower) is not int:
            raise ParseError(f"differential entry {k}: field 'upower' must be an integer")
        entries.append(DiffEntry(src, dst, upower))

    return CfkComplex(data["name"], tuple(gens), tuple(entries))


def load_file(path: str) -> CfkComplex:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text: byte {e.start}: {e.reason}") from None
    return parse(text)
