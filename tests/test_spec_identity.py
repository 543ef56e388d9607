"""A cell's identity is made once, from the spec as it stands, byte for byte
what the copy-everything form made.

``ScenarioSpec.canonical_json`` serializes the groups in place and
``to_dict`` / ``override`` copy JSON-shaped data without ``copy.deepcopy``;
pinned here against :func:`reference_models.spec_canonical_reference`.  A
sweep hashes each cell once, at expansion (``SweepCell.key``, made by
``cache.entry_key``), and carries the key into every cache lookup and
commit; a value strict JSON cannot hold is named by its path.

A cache entry's checksum is spliced from the canonical texts of its
result and spec, byte for byte the one ``json.dumps`` of the pair
(:func:`reference_models.entry_checksum_reference`), and an entry's stored
spec must hash to the name it is filed under, which survives the JSON round
trip.
"""

import ast
import json
import math
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from reference_models import entry_checksum_reference, spec_canonical_reference
from repro.scenarios import ResultCache, ScenarioSpec, SweepRunner, register_scenario
from repro.scenarios.cache import payload_checksum
from repro.scenarios.spec import CANONICAL

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "repro" / "scenarios"
GROUPS = ("topology", "flows", "queue", "loss", "extra")


@register_scenario("identity_probe")
def _identity_probe(spec):
    return {"seed": spec.seed, "x": spec.extra.get("x", 0)}


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(),
)
_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(), inner, max_size=3),
    ),
    max_leaves=12,
)


@given(
    groups=st.fixed_dictionaries(
        {name: st.dictionaries(st.text(), _JSON, max_size=4) for name in GROUPS}
    ),
    seed=st.integers(),
    duration=st.one_of(
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.0, allow_infinity=False),
    ),
)
def test_canonical_json_and_hash_match_the_deepcopy_reference(
    groups, seed, duration
):
    spec = ScenarioSpec("identity_probe", seed=seed, duration=duration, **groups)
    expected = spec_canonical_reference(spec)
    assert (spec.canonical_json(), spec.spec_hash()) == expected
    assert spec_canonical_reference(ScenarioSpec.from_dict(spec.to_dict())) == expected
    assert pickle.loads(pickle.dumps(spec)).spec_hash() == expected[1]


_GROUP_DICTS = st.fixed_dictionaries(
    {name: st.dictionaries(st.text(), _JSON, max_size=4) for name in GROUPS}
)


@given(groups=_GROUP_DICTS, result=st.dictionaries(st.text(), _JSON, max_size=4))
def test_spliced_checksum_is_the_one_dumps_digest(groups, result):
    spec = ScenarioSpec("identity_probe", **groups)
    spliced = payload_checksum(CANONICAL.encode(result), spec.canonical_json())
    assert spliced == entry_checksum_reference(spec.to_dict(), result)


def _extra(**extra):
    return {name: extra if name == "extra" else {} for name in GROUPS}


@given(groups=_GROUP_DICTS, seed=st.integers(), result=_JSON)
@example(_extra(pair=(1, 2), nested=[(0.5, (True, None))]), 0, (1, [2.0]))
@example(_extra(rtt=1), 0, 1)
@example(_extra(rtt=1.0), 0, 1.0)
@example(_extra(on=True), 0, True)
@example(_extra(on=1), 0, -0.0)
@example(_extra(zero=-0.0), -1, None)
@example(
    {**_extra(), "topology": {"zéro": 0.0, "ключ": "☃", "☃": ["é"]}}, 0, "☃"
)
def test_put_then_get_is_a_hit_for_any_json_shaped_spec(groups, seed, result):
    """The entry is read back through a JSON round trip (tuples come back as
    lists); the stored spec must still be the cell's, never quarantined."""
    spec = ScenarioSpec("identity_probe", seed=seed, **groups)
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        cache.put(spec, {"value": result})
        stored = {"value": json.loads(json.dumps(result))}
        assert cache.get_status(spec)[:2] == ("hit", stored)
        assert cache.scan() == [(cache.entry_path(spec), None)]


@pytest.mark.parametrize(
    "a, b",
    [
        ({"rtt": 1}, {"rtt": 1.0}),
        ({"on": True}, {"on": 1}),
        ({"z": 0.0}, {"z": -0.0}),
    ],
)
def test_a_twin_cells_entry_is_not_a_hit(tmp_path, a, b):
    """Specs that JSON tells apart file apart; an entry copied across is
    another cell's, even though its checksum holds."""
    first, second = (ScenarioSpec("identity_probe", extra=g) for g in (a, b))
    cache = ResultCache(tmp_path)
    cache.entry_path(second).write_bytes(cache.put(first, {"ok": 1}).read_bytes())
    status, _result, defect = cache.get_status(second)
    assert status == "corrupt" and "filed under" in defect


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"colour": 1}, "unknown ScenarioSpec fields: ['colour']"),
        ({"colour.hue": 1, "seed": 2}, "unknown ScenarioSpec fields: ['colour']"),
        ({"b": 1, "a.x": 2}, "unknown ScenarioSpec fields: ['a', 'b']"),
    ],
)
def test_override_with_an_unknown_top_level_path_raises_as_before(
    overrides, message
):
    with pytest.raises(ValueError) as raised:
        BASE.override(overrides)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "a, b",
    [({"rtt": 1}, {"rtt": 1.0}), ({"on": True}, {"on": 1}), ({}, {"": None})],
)
def test_scalars_json_tells_apart_still_hash_apart(a, b):
    first, second = (ScenarioSpec("identity_probe", topology=g) for g in (a, b))
    assert first.spec_hash() != second.spec_hash()
    for spec in (first, second):
        assert spec.spec_hash() == spec_canonical_reference(spec)[1]


BASE = ScenarioSpec(
    "identity_probe",
    topology={"rtt": 0.1, "path": {"hops": [1, 2]}},
    extra={"xs": [[1], {"k": "v"}], "pair": (1, 2)},
)


def test_mutating_a_copy_leaves_the_base_and_its_hash_alone():
    before = (BASE.canonical_json(), BASE.spec_hash())
    data = BASE.to_dict()
    data["topology"]["path"]["hops"].append(3)
    data["topology"]["rtt"] = 9
    data["extra"]["xs"][0].append(2)
    data["extra"]["xs"][1]["k"] = "w"
    derived = BASE.override({"topology.path.mtu": 1500, "seed": 4})
    derived.topology["path"]["hops"].append(4)
    derived.extra["xs"][1]["k"] = "z"
    assert BASE.topology == {"rtt": 0.1, "path": {"hops": [1, 2]}}
    assert BASE.extra == {"xs": [[1], {"k": "v"}], "pair": (1, 2)}
    assert (BASE.canonical_json(), BASE.spec_hash()) == before


def test_to_dict_deep_copies_what_is_not_json_shaped_too():
    spec = ScenarioSpec("identity_probe", extra={"tags": {"a"}, "nested": [{"b"}]})
    data = spec.to_dict()
    data["extra"]["tags"].add("x")
    data["extra"]["nested"][0].add("y")
    assert spec.extra == {"tags": {"a"}, "nested": [{"b"}]}


_CYCLE: list = []
_CYCLE.append(_CYCLE)


@pytest.mark.parametrize(
    "group, value, named",
    [
        ("topology", {"rtt": math.nan}, r"ScenarioSpec\.topology\['rtt'\] is nan"),
        ("topology", {"rtt": math.inf}, r"ScenarioSpec\.topology\['rtt'\] is inf"),
        ("loss", {"rate": -math.inf}, r"ScenarioSpec\.loss\['rate'\] is -inf"),
        ("queue", {"types": {"red"}}, r"ScenarioSpec\.queue\['types'\] is \{'red'\}"),
        ("flows", {"app": object()}, r"ScenarioSpec\.flows\['app'\] is <object "),
        (
            "extra",
            {"runs": [[1, 2], (3, math.nan)]},
            r"ScenarioSpec\.extra\['runs'\]\[1\]\[1\] is nan",
        ),
        ("extra", {(1, 2): 3}, r"ScenarioSpec\.extra is \{\(1, 2\): 3\}"),
        (
            "extra",
            {"xs": _CYCLE},
            r"ScenarioSpec\.extra\['xs'\]\[0\] is \[\[\.\.\.\]\]",
        ),
    ],
)
def test_a_value_strict_json_cannot_hold_is_named_by_its_path(group, value, named):
    spec = ScenarioSpec("identity_probe", **{group: value})
    with pytest.raises(ValueError, match=named):
        spec.spec_hash()


def test_grid_expansion_names_the_non_json_value_too():
    runner = SweepRunner(BASE, {"topology.rtt": [0.1, math.nan]})
    with pytest.raises(ValueError, match=r"ScenarioSpec\.topology\['rtt'\] is nan"):
        runner.cells()


@pytest.mark.parametrize("warm", [False, True])
def test_a_sweep_hashes_each_cell_once(tmp_path, monkeypatch, warm):
    grid = {"extra.x": [1, 2], "seed": [1, 2, 3]}
    cache_dir = str(tmp_path / "cache")
    if warm:
        SweepRunner(BASE, grid, cache_dir=cache_dir).run()
    hashed = []
    real = ScenarioSpec.spec_hash
    monkeypatch.setattr(
        ScenarioSpec, "spec_hash", lambda spec: hashed.append(spec) or real(spec)
    )
    swept = SweepRunner(BASE, grid, cache_dir=cache_dir).run()
    assert swept.cache_hits == (6 if warm else 0)
    assert len(hashed) == len(swept.cells) == 6


def _calls_by_function(tree, name):
    """The enclosing function of every ``<...>.name(...)`` / ``name(...)``
    call in ``tree`` (``<module>`` outside any function)."""

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else where
            func = getattr(child, "func", None)
            if isinstance(child, ast.Call) and name in (
                getattr(func, "attr", None),
                getattr(func, "id", None),
            ):
                yield where
            yield from walk(child, inner)

    return list(walk(tree, "<module>"))


def test_spec_hash_is_called_only_where_the_identity_is_made():
    sites = {
        f"{path.name}:{where}"
        for path in sorted(SCENARIOS.glob("*.py"))
        for where in _calls_by_function(ast.parse(path.read_text()), "spec_hash")
    }
    assert sites == {"cache.py:entry_key"}
