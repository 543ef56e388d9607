"""Declarative scenario specifications and the scenario registry.

A :class:`ScenarioSpec` captures everything needed to reproduce one
simulation cell -- topology, flow mix, queue discipline, loss model, seed,
and duration -- as plain JSON-serializable data.  Registered scenario
functions (see :func:`register_scenario`) map a spec to a JSON-serializable
result dict, which is what lets the sweep runner execute cells in worker
processes and cache results on disk keyed by the spec hash.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import zlib
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

JsonDict = Dict[str, Any]

#: A scenario maps a spec to a JSON-serializable result dictionary.
ScenarioFn = Callable[["ScenarioSpec"], JsonDict]

#: a spec's free-form parameter groups, in field order.
_GROUPS = ("topology", "flows", "queue", "loss", "extra")

#: the scalar types a JSON copy shares instead of copying (all immutable).
_SCALARS = frozenset({str, int, float, bool, type(None)})

#: the one strict encoder: key-sorted, compact, no NaN/Infinity.  Its
#: ``encode`` makes every canonical text -- a spec's, and both halves of a
#: cache entry's checksum -- without building an encoder per call.
CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False
)


def canonical_hash(text: str) -> str:
    """The 16-hex-digit digest of a canonical text (a spec's is its
    :meth:`ScenarioSpec.spec_hash`)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _copy_json(value: Any) -> Any:
    """A deep copy of JSON-shaped ``value``: dicts and lists rebuilt, scalars
    shared, anything else handed to ``copy.deepcopy``."""
    kind = type(value)
    if kind is dict:
        return {key: _copy_json(item) for key, item in value.items()}
    if kind is list:
        return [_copy_json(item) for item in value]
    if kind in _SCALARS:
        return value
    return copy.deepcopy(value)


def _first_non_json(
    value: Any, where: str, inside: Tuple[int, ...] = ()
) -> Optional[Tuple[str, Any]]:
    """``(path, value)`` of the innermost part of ``value`` that strict JSON
    rejects, or None when it has none.  Only ever walked after
    ``canonical_json`` failed, so a valid spec never pays for it."""
    try:
        CANONICAL.encode(value)
        return None
    except (TypeError, ValueError):
        pass
    if id(value) in inside:
        return where, value  # a container that holds itself
    inside += (id(value),)
    if isinstance(value, dict):
        parts: Any = value.items()
    else:
        parts = enumerate(value) if isinstance(value, (list, tuple)) else ()
    for key, item in parts:
        found = _first_non_json(item, f"{where}[{key!r}]", inside)
        if found is not None:
            return found
    return where, value


def split_override_path(path: Any) -> List[str]:
    """The segments of an override path (``"topology.rtt"``); anything but a
    ``str`` of non-empty dot-separated segments is a ``ValueError`` naming it."""
    if not isinstance(path, str) or "" in (parts := path.split(".")):
        raise ValueError(
            f"override path {path!r} must be a str of non-empty "
            f"dot-separated segments"
        )
    return parts


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully specified simulation cell.

    The grouped mappings are free-form parameter namespaces interpreted by
    the registered scenario function; the spec layer only guarantees they
    are JSON-serializable and participate in hashing.  ``extra`` holds
    scenario-specific knobs that fit none of the canonical groups
    (measurement windows, estimator settings, ...).
    """

    scenario: str
    topology: Mapping[str, Any] = field(default_factory=dict)
    flows: Mapping[str, Any] = field(default_factory=dict)
    queue: Mapping[str, Any] = field(default_factory=dict)
    loss: Mapping[str, Any] = field(default_factory=dict)
    seed: int = 0
    duration: float = 60.0
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Reject what no scenario can run, naming the field -- here, so
        ``from_dict``, ``override`` and grid expansion inherit it before a
        cell runs or a cache directory exists."""
        if not isinstance(self.scenario, str) or not self.scenario:
            raise ValueError(
                f"ScenarioSpec.scenario must be a non-empty str, "
                f"got {self.scenario!r}"
            )
        for name in _GROUPS:
            group = getattr(self, name)
            # a plain dict (every sweep cell's) skips the ABC lookup
            if type(group) is not dict and not isinstance(group, Mapping):
                raise ValueError(
                    f"ScenarioSpec.{name} must be a mapping, got {group!r}"
                )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(
                f"ScenarioSpec.seed must be an int, got {self.seed!r}"
            )
        duration = self.duration
        if (
            not isinstance(duration, (int, float))
            or isinstance(duration, bool)
            or not 0 <= duration < math.inf
        ):
            raise ValueError(
                f"ScenarioSpec.duration must be a finite number >= 0, "
                f"got {duration!r}"
            )

    # ------------------------------------------------------------- serialize

    def to_dict(self) -> JsonDict:
        """Deep plain-dict form, safe to mutate and JSON-dump."""
        return {
            "scenario": self.scenario,
            "topology": _copy_json(dict(self.topology)),
            "flows": _copy_json(dict(self.flows)),
            "queue": _copy_json(dict(self.queue)),
            "loss": _copy_json(dict(self.loss)),
            "seed": self.seed,
            "duration": self.duration,
            "extra": _copy_json(dict(self.extra)),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        unknown = set(data) - _FIELDS
        if unknown:
            raise ValueError(f"unknown ScenarioSpec fields: {sorted(unknown)}")
        if "scenario" not in data:
            raise ValueError("ScenarioSpec requires a 'scenario' name")
        return cls(**dict(data))

    def canonical_json(self) -> str:
        """Key-sorted compact JSON -- the hashing/caching representation.

        Serializes the groups as they stand, with no deep copy (the
        encoder never mutates its input).  A value strict JSON cannot hold
        -- NaN, ±Infinity, a ``set``, any other object -- is a
        ``ValueError`` naming where it sits (``ScenarioSpec.topology['rtt']``)
        and what it is.
        """
        data: JsonDict = {}
        for name in _GROUPS:
            group = getattr(self, name)  # a plain dict is not re-wrapped
            data[name] = group if type(group) is dict else dict(group)
        data.update(scenario=self.scenario, seed=self.seed, duration=self.duration)
        try:
            return CANONICAL.encode(data)
        except (TypeError, ValueError) as exc:
            for name in _GROUPS:
                found = _first_non_json(data[name], f"ScenarioSpec.{name}")
                if found is not None:
                    where, value = found
                    raise ValueError(
                        f"{where} is {value!r}, which strict JSON cannot "
                        f"hold, so the spec has no hash: {exc}"
                    ) from exc
            raise

    def spec_hash(self) -> str:
        """Stable 16-hex-digit digest identifying this spec (a sweep takes
        it once per cell, in :func:`repro.scenarios.cache.entry_key`)."""
        return canonical_hash(self.canonical_json())

    # -------------------------------------------------------------- override

    def override(self, overrides: Mapping[str, Any]) -> "ScenarioSpec":
        """A new spec with dotted-path overrides applied.

        Keys address either a top-level field (``"seed"``, ``"duration"``)
        or a nested parameter (``"topology.bandwidth_bps"``,
        ``"queue.type"``).  Used by the sweep runner to expand grids.

        Missing intermediate mappings are created, but a path that would
        descend *through* an existing non-mapping value -- ``"seed.x"``
        against the scalar ``seed`` field, or ``"topology.a.b"`` when
        ``topology.a`` is a scalar -- raises :class:`ValueError` naming the
        offending segment instead of silently clobbering it (which would
        corrupt seeding and spec hashing downstream); so does a path that
        is not a dotted string (:func:`split_override_path`).
        """
        data = self.to_dict()
        for path, value in overrides.items():
            parts = split_override_path(path)
            node: Any = data
            for depth, part in enumerate(parts[:-1]):
                if part in node and not isinstance(node[part], dict):
                    where = ".".join(parts[: depth + 1])
                    raise ValueError(
                        f"override path {path!r} descends through {where!r}, "
                        f"which holds the non-mapping value {node[part]!r}"
                    )
                node = node.setdefault(part, {})
            node[parts[-1]] = value
        return ScenarioSpec.from_dict(data)

    def derive_seed(self, overrides: Mapping[str, Any]) -> int:
        """Deterministic per-cell seed from the base seed and cell overrides.

        Stable across runs, platforms, and serial/parallel execution, so a
        sweep cell always sees the same randomness no matter how the grid
        is executed.
        """
        tag = json.dumps(
            {k: overrides[k] for k in sorted(overrides)},
            sort_keys=True, separators=(",", ":"), default=str,
            allow_nan=False,
        )
        return (self.seed * 1_000_003 + zlib.crc32(tag.encode("utf-8"))) & 0x7FFFFFFF


#: the keyword arguments a :class:`ScenarioSpec` takes.
_FIELDS = frozenset(f.name for f in fields(ScenarioSpec))


# ----------------------------------------------------------------- registry

_REGISTRY: Dict[str, ScenarioFn] = {}


def register_scenario(name: str) -> Callable[[ScenarioFn], ScenarioFn]:
    """Class-of-scenario decorator: ``@register_scenario("mixed_dumbbell")``.

    Registered functions take a :class:`ScenarioSpec` and return a
    JSON-serializable dict.  Registration is idempotent for the *same*
    function (modules may be re-imported by worker processes) but a name
    collision between different functions is an error.
    """

    def decorator(fn: ScenarioFn) -> ScenarioFn:
        existing = _REGISTRY.get(name)
        if existing is not None and (
            existing.__module__ != fn.__module__
            or existing.__qualname__ != fn.__qualname__
        ):
            raise ValueError(f"scenario {name!r} already registered by {existing}")
        _REGISTRY[name] = fn
        return fn

    return decorator


def get_scenario(name: str) -> ScenarioFn:
    """Look up a registered scenario function by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def list_scenarios() -> List[str]:
    """Sorted names of all registered scenarios."""
    return sorted(_REGISTRY)


def run_scenario(spec: ScenarioSpec) -> JsonDict:
    """Execute ``spec`` with its registered scenario function."""
    return get_scenario(spec.scenario)(spec)
