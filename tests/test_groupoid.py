import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinberg import builders, groupoid
from steinberg.builders import (
    all_groupoids_up_to,
    cyclic_group,
    direct_product,
    disjoint_union,
    one_object_groupoid,
    pair_groupoid,
    quaternion_group,
    random_groupoid,
    symmetric_group_3,
    transitive_groupoid,
    trivial_groupoid,
)
from steinberg.groupoid import (
    GroupoidValidationError,
    from_json_obj,
    to_json_obj,
    validate,
)
from steinberg.limits import SizeCapExceeded

from references import (
    scanned_isotropy,
    scanned_transporter,
    scanned_units,
    sorted_transitive_groupoid,
    union_find_orbit_classes,
    validate_by_sweep,
)


def test_trivial_groupoid():
    g = trivial_groupoid("u")
    assert g.elements == ("u",)
    assert g.units() == ("u",)
    assert g.mul("u", "u") == "u"
    assert g.inv("u") == "u"


def test_pair_groupoid_structure():
    g = pair_groupoid(["a", "b", "c"])
    assert len(g) == 9
    assert set(g.units()) == {"a", "b", "c"}
    # arrows y<x run from source x to range y
    arrow = next(e for e in g.elements if g.s(e) == "a" and g.r(e) == "b")
    assert g.inv(arrow) != arrow
    assert g.s(g.inv(arrow)) == "b"
    assert g.r(g.inv(arrow)) == "a"
    assert g.mul(g.inv(arrow), arrow) == "a"
    assert g.mul(arrow, g.inv(arrow)) == "b"
    for x in g.units():
        assert g.isotropy(x).is_trivial
    assert len(g.orbit_classes()) == 1
    assert g.orbit_of("a").members == ("a", "b", "c")


def test_one_object_groupoid_is_the_group():
    g = one_object_groupoid(cyclic_group(4))
    assert len(g) == 4
    assert g.units() == ("e",)
    iso = g.isotropy("e")
    assert iso.order == 4
    assert not iso.is_trivial


def test_transitive_groupoid_matches_the_sorted_scan(monkeypatch):
    # Same element names, order and table as the construction that sorted
    # every arrow and scanned every pair of arrows for composability.
    built = [to_json_obj(g) for g in all_groupoids_up_to(6)]
    monkeypatch.setattr(builders, "transitive_groupoid", sorted_transitive_groupoid)
    assert built == [to_json_obj(g) for g in all_groupoids_up_to(6)]
    for points, group in (([f"p{i}" for i in range(22)], cyclic_group(1)),
                          (["a", "b", "c"], quaternion_group())):
        g = transitive_groupoid(points, group)
        assert to_json_obj(g) == to_json_obj(sorted_transitive_groupoid(points, group))


def test_composability_matches_source_range():
    g = transitive_groupoid(["p", "q"], cyclic_group(2))
    for a in g.elements:
        for b in g.elements:
            assert g.composable(a, b) == (g.s(a) == g.r(b))
            if g.composable(a, b):
                ab = g.mul(a, b)
                assert g.s(ab) == g.s(b)
                assert g.r(ab) == g.r(a)
            else:
                with pytest.raises(ValueError):
                    g.mul(a, b)


def test_associativity_on_all_small_groupoids():
    for g in all_groupoids_up_to(6):
        for a in g.elements:
            for b in g.elements:
                if not g.composable(a, b):
                    continue
                for c in g.elements:
                    if not g.composable(b, c):
                        continue
                    assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def test_transporter_size_dichotomy():
    # |yGx| is 0 or |xGx| for every pair of units
    rng = random.Random(7)
    groupoids = [random_groupoid(rng, 14) for _ in range(30)]
    groupoids.append(transitive_groupoid(["p", "q", "r"], symmetric_group_3()))
    for g in groupoids:
        for x in g.units():
            n = g.isotropy(x).order
            for y in g.units():
                assert len(g.transporter(y, x)) in (0, n)


def test_transporter_contents():
    g = transitive_groupoid(["p", "q"], cyclic_group(2))
    cross = g.transporter("q", "p")
    assert all(g.s(a) == "p" and g.r(a) == "q" for a in cross)
    assert len(cross) == 2
    assert g.transporter("p", "p") == g.isotropy("p").members


def test_validate_rejects_bad_inverse():
    g = pair_groupoid(["a", "b"])
    inverse = dict(g.inverse_of)
    arrow = next(e for e in g.elements if g.s(e) != g.r(e))
    inverse[arrow] = arrow  # wrong: breaks gg^-1 = r(g)
    with pytest.raises(GroupoidValidationError) as exc_info:
        validate(list(g.elements), dict(g.source_of), dict(g.range_of), inverse, dict(g.compose))
    assert exc_info.value.violations


def test_validate_rejects_partial_compose():
    g = pair_groupoid(["a", "b"])
    compose = dict(g.compose)
    compose.pop(next(iter(compose)))
    with pytest.raises(GroupoidValidationError):
        validate(list(g.elements), dict(g.source_of), dict(g.range_of), dict(g.inverse_of), compose)


def test_validate_rejects_extra_compose_pair():
    g = disjoint_union(trivial_groupoid("a"), trivial_groupoid("b"))
    compose = dict(g.compose)
    compose[("a", "b")] = "a"  # not composable
    with pytest.raises(GroupoidValidationError):
        validate(list(g.elements), dict(g.source_of), dict(g.range_of), dict(g.inverse_of), compose)


def test_validate_collects_multiple_violations():
    with pytest.raises(GroupoidValidationError) as exc_info:
        validate(["x", "x"], {"x": "y"}, {"x": "x"}, {"x": "x"}, {})
    assert len(exc_info.value.violations) >= 2


def test_validate_rejects_associativity_break():
    # mangle one product of Z/3 so (g g) g2 differs from g (g g2)
    g = one_object_groupoid(cyclic_group(3))
    compose = dict(g.compose)
    compose[("g", "g")] = "g"
    with pytest.raises(GroupoidValidationError) as exc_info:
        validate(list(g.elements), dict(g.source_of), dict(g.range_of), dict(g.inverse_of), compose)
    assert any("associativity" in v for v in exc_info.value.violations)


def test_validate_empty_rejected():
    with pytest.raises(GroupoidValidationError):
        validate([], {}, {}, {}, {})


def test_size_cap():
    points = [f"p{i}" for i in range(23)]  # 23^2 = 529 > 512
    with pytest.raises(SizeCapExceeded):
        pair_groupoid(points)


def test_json_round_trip_bit_exact():
    g = transitive_groupoid(["p", "q"], cyclic_group(3))
    obj = to_json_obj(g)
    text = json.dumps(obj, sort_keys=True)
    g2 = from_json_obj(json.loads(text))
    assert to_json_obj(g2) == obj
    assert g2.elements == g.elements
    assert g2.compose == g.compose


def test_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        from_json_obj({"elements": ["u"]})
    with pytest.raises(ValueError):
        from_json_obj([1, 2, 3])
    with pytest.raises(ValueError):
        from_json_obj(
            {
                "elements": ["u"],
                "source": {"u": "u"},
                "range": {"u": "u"},
                "inverse": {"u": "u"},
                "compose": [["u", "u"]],  # triple expected
            }
        )


def test_orbit_classes_of_disjoint_union():
    g = disjoint_union(pair_groupoid(["a", "b"]), trivial_groupoid("z"))
    classes = g.orbit_classes()
    assert [c.members for c in classes] == [("a", "b"), ("z",)]
    assert g.orbit_of("z").representative == "z"


def test_units_are_idempotents():
    for g in all_groupoids_up_to(6):
        for e in g.elements:
            is_idem = g.composable(e, e) and g.mul(e, e) == e
            assert is_idem == g.is_unit(e)


_DOC_U = {"elements": ["u"], "source": {"u": "u"}, "range": {"u": "u"}, "inverse": {"u": "u"}}


@pytest.mark.parametrize(
    "row",
    [
        "uuu",
        ["u", "u"],
        ["u", "u", "u", "u"],
        [1, "u", "u"],
        ["u", None, "u"],
        ["u", "u", 2.5],
        ["u", ["u"], "u"],
    ],
)
def test_from_json_rejects_bad_compose_rows(row):
    with pytest.raises(ValueError) as exc_info:
        from_json_obj(dict(_DOC_U, compose=[["u", "u", "u"], row]))
    assert str(exc_info.value) == f"bad composition triple: {row!r}"


def renamed(g, rng):
    """g with fresh element ids, listed in a shuffled order."""
    names = {x: f"x{i}" for i, x in enumerate(rng.sample(g.elements, len(g.elements)))}
    order = list(g.elements)
    rng.shuffle(order)
    compose = {(names[a], names[b]): names[c] for (a, b), c in g.compose.items()}
    return validate(
        [names[x] for x in order],
        *({names[x]: names[m[x]] for x in g.elements} for m in (g.source_of, g.range_of, g.inverse_of)),
        compose,
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 30), rename=st.booleans())
def test_json_round_trip_on_random_groupoids(seed, size, rename):
    rng = random.Random(seed)
    g = random_groupoid(rng, size)
    if rename:
        g = renamed(g, rng)
    doc = to_json_obj(g)
    assert to_json_obj(from_json_obj(json.loads(json.dumps(doc)))) == doc


def _assert_structure_matches_the_scans(g):
    units = g.units()
    assert units == scanned_units(g)
    for x in units:
        assert g.isotropy(x) == scanned_isotropy(g, x)
        for y in units:
            assert g.transporter(y, x) == scanned_transporter(g, y, x)
    classes = union_find_orbit_classes(g)
    assert g.orbit_classes() == classes  # representatives, member and class order
    for x in units:
        assert g.orbit_of(x) == next(c for c in classes if x in c.members)


def test_structure_queries_match_the_scans_on_small_groupoids():
    for g in all_groupoids_up_to(6):
        _assert_structure_matches_the_scans(g)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(1, 40), max_isotropy=st.integers(1, 4))
def test_structure_queries_match_the_scans_on_random_groupoids(seed, size, max_isotropy):
    # renamed lists the elements in a shuffled order, so the least unit is
    # not necessarily the first one built and arrows precede their units
    rng = random.Random(seed)
    _assert_structure_matches_the_scans(
        renamed(random_groupoid(rng, size, max_isotropy=max_isotropy), rng)
    )


def _tables(g, compose=None):
    return (
        list(g.elements),
        dict(g.source_of),
        dict(g.range_of),
        dict(g.inverse_of),
        dict(g.compose) if compose is None else compose,
    )


def _outcome(check, tables):
    """The violation list, or the canonical document of a valid groupoid."""
    try:
        return to_json_obj(check(*tables))
    except GroupoidValidationError as exc:
        return exc.violations


def _corruptions(g, associativity_only: bool):
    """Every table that differs from g's in one composition entry.  With
    associativity_only, the entry (a, b) has non-units a, b with
    b != inverse(a) and its new value keeps source and range and is not a
    itself when a == b, so every other axiom still holds."""
    for (a, b), old in g.compose.items():
        if associativity_only:
            if g.is_unit(a) or g.is_unit(b) or b == g.inv(a):
                continue
            values = [
                c for c in g.elements
                if g.s(c) == g.s(b) and g.r(c) == g.r(a) and c != old and not a == b == c
            ]
        else:
            values = [c for c in g.elements if c != old]
        for c in values:
            yield dict(g.compose) | {(a, b): c}


def _assert_agrees(g, compose):
    tables = _tables(g, compose)
    assert _outcome(validate, tables) == _outcome(validate_by_sweep, tables)


def test_validate_agrees_with_the_sweep_on_small_groupoids_and_corruptions():
    for g in all_groupoids_up_to(6):
        _assert_agrees(g, None)
        for compose in _corruptions(g, associativity_only=True):
            violations = _outcome(validate_by_sweep, _tables(g, compose))
            assert violations and all(v.startswith("associativity fails") for v in violations)
            _assert_agrees(g, compose)
        for compose in _corruptions(g, associativity_only=False):
            _assert_agrees(g, compose)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 24),
    max_isotropy=st.integers(1, 4),
    kind=st.sampled_from(["none", "associativity", "any", "map"]),
)
def test_validate_agrees_with_the_sweep_on_random_groupoids(seed, size, max_isotropy, kind):
    rng = random.Random(seed)
    g = renamed(random_groupoid(rng, size, max_isotropy=max_isotropy), rng)
    elements, source, range_, inverse, compose = _tables(g)
    if kind in ("associativity", "any"):
        options = list(_corruptions(g, associativity_only=kind == "associativity"))
        if options:
            compose = rng.choice(options)
    elif kind == "map":
        mapping = rng.choice([source, range_, inverse])
        mapping[rng.choice(elements)] = rng.choice(elements)
    entries = list(compose.items())
    rng.shuffle(entries)  # the sweep lists failures in the table's order
    tables = (elements, source, range_, inverse, dict(entries))
    assert _outcome(validate, tables) == _outcome(validate_by_sweep, tables)


@pytest.mark.parametrize("order", ["uvwx", "xwvu", "wuxv"])
def test_validate_lists_unit_violations_in_element_order(order):
    # four units whose inverse map pairs u with v and w with x
    pairs = {"u": "v", "v": "u", "w": "x", "x": "w"}
    ids = {g: g for g in order}
    tables = (list(order), ids, ids, {g: pairs[g] for g in order}, {(g, g): g for g in order})
    violations = _outcome(validate, tables)
    assert [v for v in violations if v.startswith("unit ")] == [
        f"unit {g!r} is not its own inverse" for g in order
    ]
    assert violations == _outcome(validate_by_sweep, tables)


def _z6_corrupted():
    g = one_object_groupoid(cyclic_group(6))
    return g, dict(g.compose) | {("g", "g2"): "g4"}  # g * g2 is g3


def test_over_the_triple_cap_only_lights_witnesses_are_listed(monkeypatch):
    # Z6 has 216 composable triples; Light's test checks the 36 through g.
    g, compose = _z6_corrupted()
    full = _outcome(validate_by_sweep, _tables(g, compose))
    monkeypatch.setattr(groupoid, "MAX_ASSOCIATIVITY_TRIPLES", 100)
    listed = _outcome(validate, _tables(g, compose))
    assert listed[-1].startswith("the list is partial: the 216 composable triples exceed")
    assert listed[:-1] and set(listed[:-1]) < set(full)
    assert [v for v in full if v in listed] == listed[:-1]


def test_over_the_triple_cap_earlier_violations_come_first(monkeypatch):
    g, compose = _z6_corrupted()
    compose[("g", "g5")] = "g"  # also breaks g * inverse(g) = e
    full = _outcome(validate_by_sweep, _tables(g, compose))
    monkeypatch.setattr(groupoid, "MAX_ASSOCIATIVITY_TRIPLES", 100)
    listed = _outcome(validate, _tables(g, compose))
    earlier = [v for v in full if not v.startswith("associativity fails")]
    assert earlier and listed[: len(earlier)] == earlier
    assert set(listed[len(earlier) : -1]) <= set(full)
    assert listed[-1].startswith("the list is partial")


def test_light_test_past_the_cap_without_a_witness_is_refused(monkeypatch):
    g = one_object_groupoid(cyclic_group(6))
    monkeypatch.setattr(groupoid, "MAX_ASSOCIATIVITY_TRIPLES", 30)
    with pytest.raises(SizeCapExceeded, match="Light's associativity test"):
        validate(*_tables(g))


def test_validate_z512_answers_promptly(time_limit):
    group = cyclic_group(512)
    with time_limit(3):
        g = one_object_groupoid(group)
    assert len(g) == 512


def test_validate_answers_promptly_on_lights_worst_case(time_limit):
    # Z2^9 needs nine generators, the most a group of order 512 can need,
    # so Light's test checks 9 * 512^2 triples: still under the cap.
    group = cyclic_group(2)
    for _ in range(8):
        group = direct_product(group, cyclic_group(2))
    with time_limit(3):
        g = one_object_groupoid(group)
    assert len(g) == 512

