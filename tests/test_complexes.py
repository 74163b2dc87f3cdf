import gc
import itertools
import json
import operator
import pickle
import random
import re
import sys

import pytest
from hypothesis import example, given, strategies as st

from cfk.complexes import (
    CfkComplex,
    DiffEntry,
    Generator,
    ParseError,
    direct_sum,
    load_file,
    mirror,
    parse,
    serialize,
    tensor,
    validate,
)
from cfk.builders import box, conway_model, staircase, torus_knot_exponents, unknot
from cfk.cli import main
from cfk.homology import column
from cfk.invariants import invariants

from oracles import json_text


def test_unknot_validates(the_unknot):
    rep = validate(the_unknot)
    assert rep.ok and not rep.warnings
    assert rep.checks["vertical-homology-rank"]


def test_trefoil_validates(trefoil):
    rep = validate(trefoil)
    assert rep.ok
    assert all(rep.checks.values())


def test_extra_entry_breaks_only_maslov(trefoil):
    # adding d(b1) += U*b2 keeps d^2 = 0 and the alexander rule but breaks
    # the maslov rule: M(b2) = -2 while M(b1) - 1 + 2 = 0
    broken = CfkComplex(
        trefoil.name,
        trefoil.generators,
        trefoil.differential + (DiffEntry("b1", "b2", 1),),
    )
    rep = validate(broken)
    assert not rep.ok
    assert rep.checks["maslov-rule"] is False
    assert rep.checks["d-squared"] is True
    assert rep.checks["alexander-rule"] is True
    assert any("maslov" in e for e in rep.errors)


# one complex per structural rule that construction enforces, as file data,
# with the message that names its first offender
_MALFORMED = {
    "unique-ids": (
        [{"id": "a", "alexander": 0}, {"id": "a", "alexander": 1}],
        [],
        "duplicate generator id 'a'",
    ),
    "entry-references": (
        [{"id": "a", "alexander": 0}],
        [{"from": "a", "to": "z", "upower": 0}],
        "entry a->z: unknown generator 'z'",
    ),
    "upower-nonnegative": (
        [{"id": "a", "alexander": 0}, {"id": "b", "alexander": 1}],
        [{"from": "b", "to": "a", "upower": -1}],
        "entry b->a: negative upower -1",
    ),
    "no-duplicate-entries": (
        [{"id": "a", "alexander": 0}, {"id": "b", "alexander": 1}],
        [{"from": "b", "to": "a", "upower": 1}] * 2,
        "duplicate entry b->a U^1",
    ),
    "maslov-uniform": (
        [{"id": "a", "alexander": 0, "maslov": 0}, {"id": "b", "alexander": 1}],
        [],
        "maslov grading present on some generators but not all",
    ),
}


@pytest.mark.parametrize("rule", sorted(_MALFORMED))
def test_structural_rule_is_kept_from_construction_on(capsys, tmp_path, rule):
    gens, entries, message = _MALFORMED[rule]
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        CfkComplex(
            "bad",
            tuple(Generator(g["id"], g["alexander"], g.get("maslov")) for g in gens),
            tuple(DiffEntry(e["from"], e["to"], e["upower"]) for e in entries),
        )
    text = json.dumps({"name": "bad", "generators": gens, "differential": entries})
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse(text)
    # the command line stops at the load: an error line, exit 1, no report
    path = tmp_path / "bad.json"
    path.write_text(text)
    for argv in (["validate", "--file", str(path)], ["suite", "--seeds", "1", str(path)]):
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {message}\n"


def test_negative_upower_reported(trefoil):
    # construction checks every entry, so no copy can carry a broken entry
    broken = (DiffEntry("b1", "b2", -1), trefoil.differential[0])
    with pytest.raises(ParseError, match="^entry b1->b2: negative upower -1$"):
        CfkComplex(trefoil.name, trefoil.generators, broken)


def test_unknown_reference_reported():
    # the first offender in canonical order is named, not every one
    entries = (DiffEntry("b", "y", 0), DiffEntry("a", "z", 0))
    with pytest.raises(ParseError, match="^entry a->z: unknown generator 'z'$"):
        CfkComplex("bad", (Generator("a", 0), Generator("b", 0)), entries)


def test_vertical_rank_must_be_one():
    c = CfkComplex("two dots", (Generator("a", 0), Generator("b", 0)), ())
    rep = validate(c)
    assert rep.checks["vertical-homology-rank"] is False


# two complexes the column cannot be realized on: the chain a -> b -> c,
# whose single composite d^2(a) = c survives, and a single U^0 edge that
# raises the Alexander grading
_BROKEN = {
    "d-squared": CfkComplex(
        "chain",
        (Generator("a", 2), Generator("b", 1), Generator("c", 0)),
        (DiffEntry("a", "b", 0), DiffEntry("b", "c", 0)),
    ),
    "alexander-rule": CfkComplex(
        "rising", (Generator("a", 0), Generator("b", 1)), (DiffEntry("a", "b", 0),)
    ),
}


def test_d_squared_detected():
    rep = validate(_BROKEN["d-squared"])
    assert rep.checks["d-squared"] is False
    assert any("d^2" in e for e in rep.errors)


def test_error_list_text_and_order_are_pinned():
    # ids sort in another order than the generators (alexander descending),
    # and each rule breaks at several entries; the list below is the one
    # that the string-keyed rules wrote before validate read index arrays
    g = Generator
    gens = (g("z", 3, 0), g("y", 2, -1), g("m", 1, -2), g("b", 0, -3), g("a", -1, -4),
            g("k", 1, 5))
    pairs = ["zy0", "ym0", "mb0", "ba0", "az1", "bk0", "am0", "zk2"]
    c = CfkComplex("broken", gens, tuple(DiffEntry(p[0], p[1], int(p[2])) for p in pairs))
    rep = validate(c)
    assert rep.checks == {"alexander-rule": False, "maslov-rule": False, "d-squared": False}
    assert rep.errors == [
        "entry a->m U^0: alexander grading rises",
        "entry a->z U^1: alexander grading rises",
        "entry b->k U^0: alexander grading rises",
        "entry a->m U^0: maslov -2 != -5",
        "entry a->z U^1: maslov 0 != -3",
        "entry b->k U^0: maslov 5 != -4",
        "entry z->k U^2: maslov 5 != 3",
        "d^2 term a->b U^0 survives",
        "d^2 term a->k U^3 survives",
        "d^2 term a->y U^1 survives",
        "d^2 term b->m U^0 survives",
        "d^2 term b->z U^1 survives",
        "d^2 term m->a U^0 survives",
        "d^2 term m->k U^0 survives",
        "d^2 term y->b U^0 survives",
        "d^2 term z->m U^0 survives",
    ]
    assert rep.warnings == ["alexander gradings are not symmetric under negation"]


@pytest.mark.parametrize("failed", sorted(_BROKEN))
def test_broken_complex_fails_validate_on_the_command_line(capsys, tmp_path, failed):
    path = tmp_path / "broken.json"
    path.write_text(serialize(_BROKEN[failed]))
    assert main(["validate", "--file", str(path)]) == 1
    out = capsys.readouterr()
    assert f"FAIL {failed}" in out.out and "error: " in out.out
    assert "vertical" not in out.out and "Traceback" not in out.err


def test_direct_sum_with_a_d_squared_broken_summand_fails_validate():
    # direct_sum trusts its summands; validate reports the sum
    dot = CfkComplex("dot", (Generator("o", 0),), ())
    rep = validate(direct_sum(_BROKEN["d-squared"], dot))
    assert rep.checks["d-squared"] is False
    assert "vertical-homology-rank" not in rep.checks


def test_column_check_runs_exactly_when_its_prerequisites_pass(trefoil):
    # the broken complexes, then random differentials on the trefoil's
    # generators, which break the Alexander rule and d^2 = 0 in every
    # combination; validate never raises on them
    rng = random.Random(0)
    ids = [g.id for g in trefoil.generators]
    pool = [DiffEntry(s, t, u) for s in ids for t in ids for u in (0, 1, 2)]
    randoms = [
        CfkComplex("r", trefoil.generators, tuple(rng.sample(pool, rng.randint(0, 6))))
        for _ in range(300)
    ]
    seen = set()
    for c in [*_BROKEN.values(), *randoms]:
        rep = validate(c)
        passed = (rep.checks["alexander-rule"], rep.checks["d-squared"])
        assert ("vertical-homology-rank" in rep.checks) == all(passed), c
        assert all(passed) or not any("vertical homology" in e for e in rep.errors), c
        seen.add(passed)
    assert len(seen) == 4


def test_asymmetric_gradings_warn_only():
    c = CfkComplex("lopsided", (Generator("a", 1),), ())
    rep = validate(c)
    assert rep.ok
    assert rep.warnings
    # the set of gradings {-1, 1} is symmetric, their counts 2 and 1 are not
    uneven = CfkComplex(
        "uneven",
        (Generator("a", 1), Generator("b", 1), Generator("c", -1)),
        (DiffEntry("a", "b", 0),),
    )
    rep = validate(uneven)
    assert rep.ok
    assert rep.warnings == ["alexander gradings are not symmetric under negation"]


def test_maslov_is_optional():
    c = CfkComplex(
        "bare",
        (Generator("a", 1), Generator("b", 0), Generator("c", -1)),
        (DiffEntry("b", "c", 0), DiffEntry("b", "a", 1)),
    )
    rep = validate(c)
    assert rep.ok
    assert "maslov-rule" not in rep.checks
    # the invariants never need the homological grading
    from cfk.invariants import invariants

    assert invariants(c).a1 == 1


def test_mixed_maslov_rejected():
    # Maslov gradings on all generators or on none, in either order
    CfkComplex("none", (Generator("a", 0), Generator("b", 1)), ())
    CfkComplex("all", (Generator("a", 0, 0), Generator("b", 1, 1)), ())
    for first, second in ((0, None), (None, 0)):
        with pytest.raises(ParseError, match="maslov grading present on some"):
            CfkComplex("mixed", (Generator("a", 0, first), Generator("b", 1, second)), ())


def test_mirror_unknot_is_unknot(the_unknot):
    assert mirror(the_unknot) == the_unknot


def test_mirror_involution(trefoil, cable_t23_25):
    for c in (trefoil, cable_t23_25):
        assert mirror(mirror(c)) == c


def test_mirror_names_a_sum_as_a_whole(library):
    # tensor names A # B as (A # B), so its mirror is -(A # B), not -A # B,
    # which names another knot; mirror flips only the leading '-'
    t29, t23, fig8 = library["T(2,9)"], library["T(2,3)"], library["4_1"]
    assert tensor(t29, t29).name == "(T(2,9) # T(2,9))"
    assert mirror(tensor(t29, t29)).name == "-(T(2,9) # T(2,9))"
    assert mirror(direct_sum(fig8, box(prefix="pad."))).name == "-(4_1 + box(0))"
    nested = tensor(mirror(tensor(t29, t29)), mirror(tensor(t23, fig8)))
    assert nested.name == "(-(T(2,9) # T(2,9)) # -(T(2,3) # 4_1))"
    assert mirror(nested).name == "-(-(T(2,9) # T(2,9)) # -(T(2,3) # 4_1))"
    for c in (nested, tensor(mirror(t23), t29), t23, mirror(t23)):
        assert mirror(mirror(c)).name == c.name
    # a name read from a file follows the same rule: an even run of leading
    # '-' gains one, an odd run loses one
    assert mirror(t23.renamed("(A # B)")).name == "-(A # B)"
    assert mirror(t23.renamed("--(A # B)")).name == "---(A # B)"
    assert mirror(t23.renamed("--T(2,3)")).name == "---T(2,3)"
    assert mirror(t23.renamed("-(-T(2,3))")).name == "(-T(2,3))"
    for name in ("(A # B)", "--(A # B)", "--T(2,3)", "-(-T(2,3))", "-(a)b", "()"):
        assert mirror(mirror(t23.renamed(name))).name == name


def test_mirror_returns_every_short_name(trefoil):
    # all 19,531 names of at most 6 symbols from "-", "(", ")", "a" and " # ",
    # balanced or not, come back after two mirrors, and none is its own mirror
    symbols = ("-", "(", ")", "a", " # ")
    names = ["".join(p) for k in range(7) for p in itertools.product(symbols, repeat=k)]
    assert len(names) == 19531
    assert [mirror(mirror(trefoil.renamed(x))).name for x in names] == names
    assert all(mirror(trefoil.renamed(x)).name != x for x in names)
    # each name gains or drops one leading '-', so ')(' and '-()()' stay apart
    mirrored = {x: mirror(trefoil.renamed(x)).name for x in ("--(", "-(", ")(", "-()()")}
    assert mirrored == {"--(": "---(", "-(": "(", ")(": "-)(", "-()()": "()()"}


def test_mirror_reverses_and_negates(trefoil):
    m = mirror(trefoil)
    assert sorted(g.alexander for g in m.generators) == [-1, 0, 1]
    assert {(e.src, e.dst, e.upower) for e in m.differential} == {
        ("b0", "b1", 1),
        ("b2", "b1", 0),
    }
    assert validate(m).ok


def test_tensor_unit(trefoil, the_unknot):
    t = tensor(trefoil, the_unknot)
    renamed = CfkComplex(
        trefoil.name,
        tuple(
            Generator(g.id.split("⊗")[0], g.alexander, g.maslov) for g in t.generators
        ),
        tuple(
            DiffEntry(e.src.split("⊗")[0], e.dst.split("⊗")[0], e.upower)
            for e in t.differential
        ),
    )
    assert renamed == trefoil


def test_tensor_counts(trefoil):
    t = tensor(trefoil, trefoil)
    assert len(t.generators) == 9
    assert validate(t).ok


def test_tensor_vertical_dim_multiplies(trefoil):
    b = box()
    assert column(tensor(trefoil, trefoil)).homology.dimension == 1
    # box tensor anything stays acyclic in the vertical direction
    assert column(tensor(b, trefoil)).homology.dimension == 0
    assert tensor(b, b) != b  # 16 generators
    assert column(tensor(b, unknot())).homology.dimension == 0


def test_direct_sum_with_box(the_unknot):
    s = direct_sum(the_unknot, box())
    assert len(s.generators) == 5
    assert column(s).homology.dimension == 1
    assert validate(s).ok


def _rank_failure(c: CfkComplex) -> list[str]:
    rep = validate(c)
    assert rep.checks["d-squared"] and rep.checks["vertical-homology-rank"] is False
    return rep.errors


def test_direct_sum_of_two_boxes_fails_the_rank_check():
    s = direct_sum(box(prefix="p."), box(prefix="q."))
    assert _rank_failure(s) == ["vertical homology has dimension 0, expected 1"]


def test_direct_sum_of_two_staircases_fails_the_rank_check(trefoil, t29):
    relabeled = CfkComplex(
        "other",
        tuple(Generator("x" + g.id, g.alexander, g.maslov) for g in t29.generators),
        tuple(DiffEntry("x" + e.src, "x" + e.dst, e.upower) for e in t29.differential),
    )
    s = direct_sum(trefoil, relabeled)
    assert _rank_failure(s) == ["vertical homology has dimension 2, expected 1"]


def test_direct_sum_rejects_id_collision():
    # construction refuses a sum whose summands share a generator id
    with pytest.raises(ParseError, match=r"^duplicate generator id 'q0\.tl'$"):
        direct_sum(conway_model(), box(prefix="q0."))


def test_tensor_rejects_id_collision():
    # (p, q⊗r) and (p⊗q, r) both pair to p⊗q⊗r
    a = CfkComplex("a", (Generator("p", 0), Generator("p⊗q", 0)), ())
    b = CfkComplex("b", (Generator("r", 0), Generator("q⊗r", 0)), ())
    with pytest.raises(ParseError, match="^duplicate generator id 'p⊗q⊗r'$"):
        tensor(a, b)


def test_round_trip_is_canonical(trefoil, t45, cable_t23_25):
    for c in (trefoil, t45, cable_t23_25, unknot()):
        text = serialize(c)
        assert serialize(parse(text)) == text
        assert parse(text) == c


# text that json must escape, a line separator JSON leaves raw, a non-BMP
# character and the tensor product's own separator
_AWKWARD = '"\\\x00\x07\x1f\x7f\u2028⊗é𝄞'
_texts = st.text(st.sampled_from(_AWKWARD) | st.characters(blacklist_categories=("Cs",)), max_size=6)
_huge = st.integers(2**64, 2**80)
_ints = st.integers(-3, 3) | _huge | _huge.map(lambda k: -k)
_upowers = st.integers(0, 3) | _huge


@st.composite
def _complexes(draw):
    ids = draw(st.lists(_texts, unique=True, max_size=5))
    graded = draw(st.booleans())
    gens = tuple(Generator(g, draw(_ints), draw(_ints) if graded else None) for g in ids)
    entries = ()
    if ids:
        ends = st.sampled_from(ids)
        entries = draw(st.lists(st.builds(DiffEntry, ends, ends, _upowers), unique=True, max_size=6))
    return CfkComplex(draw(_texts), gens, tuple(entries))


@given(_complexes())
@example(CfkComplex("", (), ()))
def test_serialize_writes_json_text(c):
    text = serialize(c)
    assert text == json_text(c)
    back = parse(text)
    assert back == c and back.name == c.name


def test_records_are_immutable():
    for record, name in ((Generator("a", 0, 1), "alexander"), (DiffEntry("a", "b", 0), "upower")):
        with pytest.raises(AttributeError):
            setattr(record, name, 2)


def test_parse_duplicate_id_names_it():
    text = """{"name": "dup", "generators": [
        {"id": "a", "alexander": 0}, {"id": "a", "alexander": 1}],
        "differential": []}"""
    with pytest.raises(ParseError, match="'a'"):
        parse(text)


def test_parse_syntax_error_has_location():
    with pytest.raises(ParseError, match="line"):
        parse("{not json")


def test_parse_unknown_target():
    text = """{"name": "x", "generators": [{"id": "a", "alexander": 0}],
        "differential": [{"from": "a", "to": "b", "upower": 0}]}"""
    with pytest.raises(ParseError, match="'b'"):
        parse(text)


def test_parse_type_errors():
    with pytest.raises(ParseError, match="alexander"):
        parse('{"name": "x", "generators": [{"id": "a", "alexander": "no"}], "differential": []}')
    with pytest.raises(ParseError, match="top level"):
        parse("[]")
    with pytest.raises(ParseError, match="missing"):
        parse('{"name": "x"}')


def test_parse_rejects_deep_nesting():
    for text in ("[" * 100000, "[" * 100000 + "]" * 100000, '{"a": ' * 100000):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse(text)


def test_load_file_rejects_invalid_utf8(tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8"):
        load_file(str(bad))


def test_unreadable_text_exits_1_through_validate(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b"\xff\xfe{}")
    for path in (deep, latin1):
        assert main(["validate", "--file", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: ") and "Traceback" not in out.err


# an integer literal longer than the interpreter's digit limit (4300 by default)
_LONG_INT = (
    '{"name": "x", "generators": [{"id": "a", "alexander": ' + "9" * 5000 + "}],"
    ' "differential": []}'
)
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_needs_digit_limit = pytest.mark.skipif(
    not 0 < _digit_limit < 5000, reason="interpreter reads 5000-digit integers"
)


@_needs_digit_limit
def test_parse_rejects_overlong_integer():
    with pytest.raises(ParseError, match="number out of range"):
        parse(_LONG_INT)


@_needs_digit_limit
def test_overlong_integer_exits_1_through_validate(capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text(_LONG_INT)
    assert main(["validate", "--file", str(path)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: number out of range") and "Traceback" not in out.err


def test_parse_distinct_from_validation():
    # structurally fine but algebraically broken: parse accepts, validate rejects
    text = """{"name": "x", "generators": [
        {"id": "a", "alexander": 1}, {"id": "b", "alexander": 0}],
        "differential": [{"from": "b", "to": "a", "upower": 0}]}"""
    c = parse(text)
    assert not validate(c).ok


def test_genus_bound(t45):
    assert t45.genus_bound == 6
    assert unknot().genus_bound == 0


def test_genus_bound_is_cached_per_value(t45):
    c = parse(serialize(t45))
    assert "genus_bound" not in vars(c)
    assert c.genus_bound == 6 and vars(c)["genus_bound"] == 6
    wider = CfkComplex(c.name, c.generators + (Generator("far", -9, 0),), c.differential)
    assert "genus_bound" not in vars(wider) and wider.genus_bound == 9
    back = pickle.loads(pickle.dumps(c))
    assert back == c and hash(back) == hash(c) and back.genus_bound == 6


def test_canonical_ordering_applied():
    c = CfkComplex(
        "order",
        (Generator("z", -1), Generator("a", 1), Generator("m", 1)),
        (),
    )
    assert [g.id for g in c.generators] == ["a", "m", "z"]


def test_round_trip_keeps_equality_and_hash(trefoil, t45):
    for c in (trefoil, t45, tensor(trefoil, mirror(t45))):
        back = parse(serialize(c))
        assert back == c
        assert hash(back) == hash(c)


def test_name_is_a_label_not_part_of_equality(trefoil, cold_caches):
    renamed = trefoil.renamed("x")
    assert renamed == trefoil and hash(renamed) == hash(trefoil)
    # so the caches keyed on a complex share one entry across names
    assert column(trefoil) is column(renamed)
    info = column.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # the name still reaches every output that shows it
    assert json.loads(serialize(renamed))["name"] == "x"
    assert invariants(renamed).name == "x" and invariants(trefoil).name == "T(2,3)"


def test_renamed_shares_the_arrays(trefoil):
    hash(trefoil)
    renamed = trefoil.renamed("other")
    assert renamed.name == "other" and trefoil.name == "T(2,3)"
    for key in ("ids", "gradings", "maslov", "targets", "upowers", "offsets", "_hash"):
        assert vars(renamed)[key] is vars(trefoil)[key]
    assert renamed == trefoil and hash(renamed) == hash(trefoil)
    # a complex built afresh computes its own hash, once
    cut = CfkComplex("other", trefoil.generators, trefoil.differential[:1])
    assert "_hash" not in vars(cut)
    assert cut != trefoil and hash(cut) == hash(cut)
    assert "_hash" in vars(cut)


def test_cached_hash_stays_private(trefoil):
    fresh = parse(serialize(trefoil))
    hash(trefoil)
    assert "_hash" in vars(trefoil) and "_hash" not in vars(fresh)
    assert serialize(trefoil) == serialize(fresh)
    assert trefoil == fresh
    assert invariants(trefoil).as_dict() == invariants(fresh).as_dict()
    assert "_hash" not in repr(trefoil)
    assert repr(trefoil) == repr(fresh)
    # string hashes differ between processes, so a pickle must not carry one
    assert "_hash" not in vars(pickle.loads(pickle.dumps(trefoil)))


def _held(complex: CfkComplex) -> list:
    """Every object a complex holds: gc.get_referents walked from the values
    of its attributes (their names belong to the class, not to the value)."""
    seen, held, stack = set(), [], list(vars(complex).values())
    while stack:
        obj = stack.pop()
        if id(obj) not in seen and not isinstance(obj, type):
            seen.add(id(obj))
            held.append(obj)
            stack += gc.get_referents(obj)
    return held


def test_equal_labels_are_one_object():
    # ids are interned where interned strings are mortal, so complexes built
    # or parsed apart share their strings; on Python 3.12, where interning
    # would keep every label for good, they only compare equal
    shared = sys.version_info[:2] != (3, 12)
    first = staircase(torus_knot_exponents(2, 9))
    again = staircase(torus_knot_exponents(2, 9))
    for other in (again, parse(serialize(first))):
        assert len(other.ids) == 9 and other.ids == first.ids
        assert all(map(operator.is_, other.ids, first.ids)) == shared


def test_a_complex_holds_arrays_only(trefoil, t29):
    made = {
        "constructor": trefoil,
        "parse": parse(serialize(t29)),
        "tensor": tensor(trefoil, t29),
        "mirror": mirror(t29),
        "direct_sum": direct_sum(trefoil, box(prefix="s.")),
        "renamed": t29.renamed("other"),
    }
    for how, c in made.items():
        hash(c), c.blocks, c.genus_bound  # what a complex derives is held too
        assert not [x for x in _held(c) if isinstance(x, (Generator, DiffEntry))], how
    # one string per generator, formed once by tensor, and the name
    big = tensor(tensor(t29, t29), t29)
    hash(big), big.blocks
    held = _held(big)
    strings = [x for x in held if isinstance(x, str)]
    assert len(big.ids) == 729 and len(strings) <= 729 + 1
    # flat arrays: no tuple per generator or per entry, only one per block
    tuples = [x for x in held if isinstance(x, tuple)]
    assert len(tuples) <= len(big.blocks) + 8, len(tuples)
    with pytest.raises(AttributeError):
        big.name = "other"
