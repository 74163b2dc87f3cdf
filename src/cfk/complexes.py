"""Finitely generated bifiltered chain complexes over the two-element field.

A complex is a finite set of generators, each carrying an Alexander grading
(and optionally a Maslov grading), together with differential entries of the
form ``d(src) += U^k * dst``.  A generator ``x`` occupies the lattice points
``[x, i, i + A(x)]``; multiplication by U shifts a point to ``(i-1, j-1)``.
A complex holds only flat canonical arrays: per generator its id, gradings
and entry offset, per entry its target index and U power.  Ids are
read only at the edges: by ``parse`` and the constructor, by ``serialize``
and in messages.  All structural operations return new immutable values
and work on the arrays; parse, the constructor, mirror, tensor and
direct_sum all make them through ``_canonical``.
"""

from __future__ import annotations

import json
import sys
import weakref
from dataclasses import dataclass, field
from functools import cached_property, wraps
from itertools import accumulate, chain, groupby, islice, repeat
from json.encoder import encode_basestring
from operator import sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence


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


# Interning makes equal ids built or parsed apart one object.  Interned
# strings are immortal on Python 3.12, where every fresh label would stay for
# the life of the process, so ids are not interned there (str of a str is
# the string itself).
_intern = str if sys.version_info[:2] == (3, 12) else sys.intern


def _by_source_id(c: CfkComplex) -> list[tuple[int, range]]:
    """(source, index range of its entries) per generator by ascending id:
    the entries read in this order are in (src, dst, upower) order.  A
    canonical order is a run of ascending ids per grading: the sort merges them."""
    o, ids = c.offsets, c.ids
    return [(s, range(o[s], o[s + 1])) for s in sorted(range(len(ids)), key=ids.__getitem__)]


def _order(ids, gradings, maslov) -> tuple[list[int], list[int]]:
    """The canonical order, (alexander descending, id ascending), and the id
    order of generators given in any order, as lists of their positions.

    Raises ParseError naming the first generator in canonical order that
    repeats an id or breaks Maslov uniformity (``maslov`` is None for none).
    """
    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    order = sorted(by_id, key=gradings.__getitem__, reverse=True)  # ties stay in id order
    mixed = maslov is not None and 0 < maslov.count(None) < len(maslov)
    if mixed or len(set(ids)) < len(ids):
        seen: set[str] = set()
        bare = maslov is None or maslov[order[0]] is None
        for p in order:
            if ids[p] in seen:
                raise ParseError(f"duplicate generator id {ids[p]!r}")
            if (maslov is None or maslov[p] is None) != bare:
                raise ParseError("maslov grading present on some generators but not all")
            seen.add(ids[p])
    return order, by_id


def _canonical(order: list[int], by_id: list[int], ids, gradings, maslov,
               sources: Iterable[int], targets: Iterable[int], upowers: Sequence[int]) -> tuple:
    """The canonical arrays (ids, gradings, maslov, targets, upowers, offsets)
    of generator columns with the orders of _order and of entries given by
    source and target position and U power, both in any order.  Ids go
    through _intern.  An entry is one int key, (canonical source, target id
    rank, U power), so one sort of ints orders the entries and no object per
    entry outlives the call.
    """
    ids = tuple(map(_intern, map(ids.__getitem__, order)))  # in canonical order from here on
    n, shift = len(order), max(upowers, default=0).bit_length()
    new, rank = [0] * n, [0] * n  # canonical index and id rank per position
    for k, p, q in zip(range(n), order, by_id):
        new[p], rank[q] = k, k
    keys = [(new[s] * n + rank[d] << shift) | u for s, d, u in zip(sources, targets, upowers)]
    keys.sort()
    index = list(map(new.__getitem__, by_id))  # canonical index per id rank
    mask, stride = (1 << shift) - 1, n << shift
    if len(set(keys)) < len(keys):  # name the first repeat in (src, dst, upower) order
        raise ParseError(_bad_entry(ids, [
            (ids[k // stride], ids[index[(k >> shift) % n]], k & mask) for k in keys]))
    counts = [0] * n
    for k in keys:
        counts[k // stride] += 1
    return (
        ids,
        tuple(map(gradings.__getitem__, order)),
        None if maslov is None else tuple(map(maslov.__getitem__, order)),
        tuple([index[(k >> shift) % n] for k in keys]),
        tuple([k & mask for k in keys]),
        (0, *accumulate(counts)),
    )


def _bad_entry(ids, entries) -> str:
    """The message for the first entry, in (src, dst, upower) order, that
    names an unknown generator, has a negative U power or repeats one."""
    known, previous = set(ids), None
    for key in sorted(entries):
        src, dst, upower = key
        if src not in known:
            return f"entry {src}->{dst}: unknown generator {src!r}"
        if dst not in known:
            return f"entry {src}->{dst}: unknown generator {dst!r}"
        if upower < 0:
            return f"entry {src}->{dst}: negative upower {upower}"
        if key == previous:
            return f"duplicate entry {src}->{dst} U^{upower}"
        previous = key
    raise AssertionError("every entry keeps the structural rules")


def _structure(ids: list, gradings: list, maslov: list, srcs: list, dsts: list, upowers: list):
    """Canonical arrays from one column per generator field and one per
    entry field, each in any order.

    The structural rules are checked here, on construction and parse alike,
    and the first offender is named: generators in canonical order first,
    then entries in (src, dst, upower) order.
    """
    if maslov.count(None) == len(maslov):
        maslov = None
    order, by_id = _order(ids, gradings, maslov)
    position = dict(zip(ids, range(len(ids))))
    sources, targets = list(map(position.get, srcs)), list(map(position.get, dsts))
    if None in sources or None in targets or min(upowers, default=0) < 0:
        raise ParseError(_bad_entry(ids, zip(srcs, dsts, upowers)))
    return _canonical(order, by_id, ids, gradings, maslov, sources, targets, upowers)


class CfkComplex:
    """Immutable, well-formed complex, held as canonical arrays.

    Canonical order is (alexander descending, id ascending) for generators
    and, per generator, (target id, upower) for the entries out of it,
    matching the on-disk serialization.  A complex holds only ``name`` and
    flat tuples: per generator index ``ids`` (interned where interned
    strings are mortal, see _intern), ``gradings`` (Alexander) and
    ``maslov`` (or None); per entry, grouped by source in canonical order,
    ``targets`` (the target index) and ``upowers``; and ``offsets``:
    generator k's entries are ``[offsets[k], offsets[k + 1])``.
    ``generators`` and ``differential`` give the records back, built on
    each read.

    ``CfkComplex(name, generators, differential)`` takes records in any
    order and enforces the structural rules, so no other code checks them:
    ids are unique, entries name known generators, U powers are at least 0,
    no entry occurs twice, and Maslov gradings are given on all generators
    or on none.  It raises ParseError naming the first offender.  The name
    is a label: equality and the hash are structural, so the caches keyed on
    a complex share entries across names, and ``renamed`` shares the arrays.
    """

    _fields = ("name", "ids", "gradings", "maslov", "targets", "upowers", "offsets")
    name: str
    ids: tuple[str, ...]
    gradings: tuple[int, ...]
    maslov: tuple[int, ...] | None
    targets: tuple[int, ...]
    upowers: tuple[int, ...]
    offsets: tuple[int, ...]

    def __init__(self, name: str, generators: Iterable[Generator] = (),
                 differential: Iterable[DiffEntry] = ()) -> None:
        gens, entries = tuple(generators), tuple(differential)
        vars(self).update(zip(self._fields, (name, *_structure(
            [g.id for g in gens], [g.alexander for g in gens], [g.maslov for g in gens],
            [e.src for e in entries], [e.dst for e in entries], [e.upower for e in entries],
        ))))

    @classmethod
    def _of(cls, *fields) -> CfkComplex:
        """The complex of a name and arrays that are canonical already: nothing is checked."""
        c = object.__new__(cls)
        vars(c).update(zip(cls._fields, fields))
        return c

    def renamed(self, name: str) -> CfkComplex:
        """The same complex under another name; it shares the arrays and
        whatever was derived from them."""
        c = object.__new__(type(self))
        vars(c).update(vars(self), name=name)
        return c

    def __setattr__(self, key, value):
        raise AttributeError(f"CfkComplex is immutable: cannot set {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"CfkComplex is immutable: cannot delete {key!r}")

    def _key(self) -> tuple:
        return self.ids, self.gradings, self.maslov, self.targets, self.upowers, self.offsets

    def __eq__(self, other) -> bool:
        if not isinstance(other, CfkComplex):
            return NotImplemented
        return self is other or self._key() == other._key()

    @cached_property
    def _hash(self) -> int:
        return hash(self._key())

    def __hash__(self) -> int:
        # Complexes key the lifetime caches, so hash the arrays once.
        return self._hash

    def __getstate__(self) -> dict:
        # String hashes differ between processes: never pickle a cached one.
        return {k: v for k, v in vars(self).items() if k != "_hash"}

    def __repr__(self) -> str:
        return (f"CfkComplex(name={self.name!r}, generators={self.generators!r},"
                f" differential={self.differential!r})")

    @property
    def generators(self) -> tuple[Generator, ...]:
        """The generators as records, in canonical order; built on each read."""
        maslov = self.maslov or (None,) * len(self.ids)
        return tuple(map(Generator, self.ids, self.gradings, maslov))

    @property
    def differential(self) -> tuple[DiffEntry, ...]:
        """The entries as records, in (src, dst, upower) order; built on each read."""
        ids, targets, upowers = self.ids, self.targets, self.upowers
        return tuple(DiffEntry(ids[s], ids[targets[k]], upowers[k])
                     for s, span in _by_source_id(self) for k in span)

    def sources(self) -> Iterator[int]:
        """The source index per entry, in array order, read off ``offsets``."""
        counts = map(sub, islice(self.offsets, 1, None), self.offsets)
        return chain.from_iterable(map(repeat, range(len(self.ids)), counts))

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
    def genus_bound(self) -> int:
        """max |A(x)|; a valid complex has |tau| <= g and |a1| <= 2g."""
        grades = self.gradings  # descending, so the extremes are at the ends
        return max(abs(grades[0]), abs(grades[-1])) if grades else 0


class CacheInfo(NamedTuple):
    """lru_cache's cache_info() fields; a lifetime cache has no maxsize."""

    hits: int
    misses: int
    maxsize: None
    currsize: int


def lifetime_cache(fn: Callable) -> Callable:
    """fn(complex, *key), cached for as long as the complex lives.

    Entries are keyed weakly on the complex, by the structural equality and
    hash above: an entry lives exactly as long as the complex it was first
    computed for, an equal complex reads it while that one lives, and a
    temporary's entries go with the temporary.  Each complex holds one dict
    of (argument tuple, value) entries; the key is () for a function of the
    complex alone.  No value may refer to its complex, or the complex would
    never go.  ``cache_info()`` and ``cache_clear()`` mean what lru_cache's
    do; currsize counts values.
    """
    entries: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    counts = [0, 0]  # hits, misses
    missing = object()

    @wraps(fn)
    def cached(complex, *key):
        held = entries.get(complex)
        if held is None:
            held = entries[complex] = {}
        value = held.get(key, missing)
        if value is missing:
            counts[1] += 1
            value = held[key] = fn(complex, *key)
        else:
            counts[0] += 1
        return value

    def cache_clear() -> None:
        entries.clear()
        counts[:] = [0, 0]

    cached.cache_info = lambda: CacheInfo(*counts, None, sum(map(len, entries.values())))
    cached.cache_clear = cache_clear
    return cached


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


def _named(ids, terms: list[tuple[int, int, int]]) -> list[tuple[str, str, int, tuple]]:
    """(src id, dst id, upower, (src, dst)) per term that breaks a rule, in
    the differential's order: ids are looked up for these terms only."""
    return sorted((ids[s], ids[d], u, (s, d)) for s, d, u in terms)


def validate(complex: CfkComplex) -> ValidationReport:
    """Check the algebraic axioms of a complex and report per-axiom results.

    The Alexander and Maslov rules, d^2 = 0, and one-dimensional homology of
    the column.  The Alexander-grading symmetry of the multiset {A(x)} is
    reported as a warning only: subquotient machinery does not rely on it.
    """
    rep = ValidationReport()
    ids, alex, m = complex.ids, complex.gradings, complex.maslov
    targets, upowers, offsets = complex.targets, complex.upowers, complex.offsets
    # One pass over the entries checks both rules and d^2 = 0 as U-monomials:
    # every composite term occurs an even number of times, so each (source,
    # U power)'s XOR bitset of targets ends at zero.  This is the symbolic
    # check, independent of any lattice realization.
    rises, bad, survivors = [], [], []
    for s in range(len(ids)):
        parity: dict[int, int] = {}
        for k in range(offsets[s], offsets[s + 1]):
            d, u = targets[k], upowers[k]
            if alex[d] > alex[s] + u:
                rises.append((s, d, u))
            if m is not None and m[d] != m[s] - 1 + 2 * u:
                bad.append((s, d, u))
            for q in range(offsets[d], offsets[d + 1]):
                w = u + upowers[q]
                parity[w] = parity.get(w, 0) ^ 1 << targets[q]
        if any(parity.values()):
            survivors += [(s, t, u) for u, bits in parity.items() if bits
                          for t in range(bits.bit_length()) if bits >> t & 1]
    rep._record("alexander-rule", [
        f"entry {s}->{d} U^{u}: alexander grading rises" for s, d, u, _ in _named(ids, rises)
    ])
    if m is not None:
        rep._record("maslov-rule", [
            f"entry {s}->{d} U^{u}: maslov {m[k[1]]} != {m[k[0]] - 1 + 2 * u}"
            for s, d, u, k in _named(ids, bad)
        ])
    rep._record("d-squared", [
        f"d^2 term {s}->{t} U^{u} survives" for s, t, u, _ in _named(ids, survivors)
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


def mirror(complex: CfkComplex) -> CfkComplex:
    """Dual complex: reverse every entry, negate both gradings.

    Reversing an entry keeps its U power, so the grading rules hold again after
    negation; mirror twice gives back an equal complex and its name.  A name is
    a mirror's when it starts with an odd number of '-': mirror drops one '-'
    from it, and adds one to any other name, so -(A # B) mirrors to (A # B)."""
    name = complex.name
    name = name[1:] if (len(name) - len(name.lstrip("-"))) % 2 else "-" + name
    ids, gradings = complex.ids, [-a for a in complex.gradings]
    maslov = None if complex.maslov is None else [-m for m in complex.maslov]
    # each entry reversed: its target is the new source, its source the new target
    return CfkComplex._of(name, *_canonical(*_order(ids, gradings, maslov), ids, gradings, maslov,
                          complex.targets, complex.sources(), complex.upowers))


def tensor(a: CfkComplex, b: CfkComplex) -> CfkComplex:
    """Tensor product over the U ring; models the connect sum.

    Generators are pairs x⊗y with gradings added; the differential follows
    the Leibniz rule (no signs over the two-element field).  The result is
    named (A # B), so a sum's mirror -(A # B) names the sum as a whole.
    Pairs whose ids collide raise ParseError, as the constructor would.
    """
    nb = len(b.ids)
    ids = [f"{x}⊗{y}" for x in a.ids for y in b.ids]  # pair (i, j) at i * nb + j
    gradings = [x + y for x in a.gradings for y in b.gradings]
    maslov = None
    if a.maslov is not None and b.maslov is not None:
        maslov = [x + y for x in a.maslov for y in b.maslov]
    # an entry of a gives one per row of pairs, an entry of b one per column
    rows = [range(i * nb, i * nb + nb) for i in range(len(a.ids))]
    cols = [range(j, len(ids), nb) for j in range(nb)]
    sources = chain(chain.from_iterable(map(rows.__getitem__, a.sources())),
                    chain.from_iterable(map(cols.__getitem__, b.sources())))
    targets = chain(chain.from_iterable(map(rows.__getitem__, a.targets)),
                    chain.from_iterable(map(cols.__getitem__, b.targets)))
    upowers = [*chain.from_iterable(map(repeat, a.upowers, repeat(nb))),
               *chain.from_iterable(map(repeat, b.upowers, repeat(len(a.ids))))]
    return CfkComplex._of(f"({a.name} # {b.name})", *_canonical(
        *_order(ids, gradings, maslov), ids, gradings, maslov, sources, targets, upowers))


def direct_sum(a: CfkComplex, b: CfkComplex) -> CfkComplex:
    """Disjoint union of two complexes, named (A + B).

    The sum is a knot complex exactly when one summand carries the
    one-dimensional vertical homology and the other is vertically acyclic;
    like tensor, direct_sum does not check that, and validate reports the
    sum's vertical-homology-rank.  Summands that share a generator id, or
    that differ in carrying Maslov gradings, raise ParseError, as the
    constructor would.
    """
    na, nb = len(a.ids), len(b.ids)
    ids, gradings = a.ids + b.ids, a.gradings + b.gradings
    maslov = None
    if a.maslov is not None or b.maslov is not None:
        maslov = (a.maslov or (None,) * na) + (b.maslov or (None,) * nb)
    sources = chain(a.sources(), map(na.__add__, b.sources()))
    targets = chain(a.targets, map(na.__add__, b.targets))
    return CfkComplex._of(f"({a.name} + {b.name})", *_canonical(*_order(ids, gradings, maslov), ids,
                          gradings, maslov, sources, targets, a.upowers + b.upowers))


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
    ids, t, u = list(map(q, complex.ids)), complex.targets, complex.upowers
    if complex.maslov is None:
        gens = [f'{{\n      "id": {i},\n      "alexander": {a}\n    }}'
                for i, a in zip(ids, complex.gradings)]
    else:
        gens = [f'{{\n      "id": {i},\n      "alexander": {a},\n      "maslov": {m}\n    }}'
                for i, a, m in zip(ids, complex.gradings, complex.maslov)]
    entries = [
        f'{{\n      "from": {ids[s]},\n      "to": {ids[t[k]]},\n      "upower": {u[k]}\n    }}'
        for s, span in _by_source_id(complex) for k in span
    ]
    return (
        f'{{\n  "name": {q(complex.name)},\n  "generators": {_json_list(gens)},'
        f'\n  "differential": {_json_list(entries)}\n}}\n'
    )


# (key, type as messages name it, the types it may have) per field of a
# generator and of an entry; type(x) is int, not isinstance: JSON true and
# false are bools, a subclass of int
_GENERATOR_FIELDS = (
    ("id", "a string", {str}), ("alexander", "an integer", {int}),
    ("maslov", "an integer", {int, type(None)}),
)
_ENTRY_FIELDS = (("from", "a string", {str}), ("to", "a string", {str}),
                 ("upower", "an integer", {int}))


def _columns(items: list, what: str, fields: tuple) -> list[list]:
    """One list per field of a list of JSON objects, type-checked whole.

    On a wrong type, one pass over the objects names the first offender:
    the first object that is none, or the first wrong field of the first
    object that has one.
    """
    if set(map(type, items)) <= {dict}:
        columns = [list(map(dict.get, items, repeat(key))) for key, _, _ in fields]
        if all(set(map(type, column)) <= types for column, (_, _, types) in zip(columns, fields)):
            return columns
    for k, raw in enumerate(items):
        if type(raw) is not dict:
            raise ParseError(f"{what} {k}: must be an object")
        for key, kind, types in fields:
            if type(raw.get(key)) not in types:
                raise ParseError(f"{what} {k}: field {key!r} must be {kind}")
    raise AssertionError(f"every {what} has fields of the right types")


def parse(text: str) -> CfkComplex:
    """Read a complex from its text form.

    Raises ParseError for bad JSON syntax and for fields of the wrong type,
    then, like the constructor, for broken structure (duplicate ids, entries
    naming unknown generators, ...), naming the same first offender.
    Algebraic axioms are checked separately by validate().
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    except ValueError as e:  # an integer past the interpreter's digit limit
        raise ParseError(f"number out of range: {e}") from None

    # Each message is built only when its check fails.
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

    # popped, so that each list of JSON objects is freed once read
    ids, gradings, maslov = _columns(data.pop("generators"), "generator", _GENERATOR_FIELDS)
    srcs, dsts, upowers = _columns(data.pop("differential"), "differential entry", _ENTRY_FIELDS)
    return CfkComplex._of(data["name"], *_structure(ids, gradings, maslov, srcs, dsts, upowers))


def load_file(path: str) -> CfkComplex:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text: byte {e.start}: {e.reason}") from None
    return parse(text)
