"""Determinism-discipline rules (``determinism.*``).

A scenario cell result must be a pure function of its
:class:`~repro.scenarios.spec.ScenarioSpec` -- that is what makes cache
entries trustworthy, sweeps executor-independent, and the chaos soak's
byte-identity assertion meaningful.  These rules flag the classic ways
nondeterminism leaks into Python code on the simulation/scenario paths:
wall-clock reads, the process-global RNG, unsorted directory listings,
and iteration over hash-ordered sets.

The worker/heartbeat/fault layers *are* wall-clock code; they are exempt
via the engine's allowlist table (with reasons), not via weaker rules.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional, Sequence

from repro.analysis.audit.engine import (
    Rule,
    SourceFile,
    file_checker,
)
from repro.analysis.audit.records import AuditRecord

RULE_WALL_CLOCK = Rule(
    id="determinism.wall-clock",
    summary="wall-clock read on a simulation/scenario code path",
    hint="thread simulated time (or the fabric's fs_now) through instead; "
    "elapsed-time instrumentation belongs in allowlisted layers",
)
RULE_GLOBAL_RNG = Rule(
    id="determinism.global-rng",
    summary="process-global RNG use (random.* / numpy.random.*)",
    hint="use a random.Random(seed)/numpy Generator seeded from the "
    "spec's seed (see ScenarioSpec.derive_seed)",
)
RULE_UNSORTED_LISTDIR = Rule(
    id="determinism.unsorted-listdir",
    summary="directory listing consumed without sorting",
    hint="wrap the listing in sorted(...) -- os.listdir/glob order is "
    "filesystem-dependent",
)
RULE_SET_ITERATION = Rule(
    id="determinism.set-iteration",
    summary="iteration over a hash-ordered set",
    hint="iterate sorted(the_set) (or keep a list/dict, which preserve "
    "insertion order)",
)

#: canonical dotted names that read the wall clock.
_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.asctime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: order-insensitive (or ordering) consumers that sanitize a listing.
_LISTING_SANITIZERS = frozenset(
    {"sorted", "set", "frozenset", "len", "sum", "any", "all", "max", "min"}
)

#: directory-listing producers: canonical names and bare method names.
_LISTING_FUNCS = frozenset({"os.listdir", "os.scandir"})
_LISTING_METHODS = frozenset({"iterdir", "glob", "rglob"})

#: where the family applies: the simulation core and everything a
#: scenario cell executes.
DETERMINISM_PREFIXES = (
    "src/repro/sim/",
    "src/repro/core/",
    "src/repro/net/",
    "src/repro/tcp/",
    "src/repro/traffic/",
    "src/repro/multicast/",
    "src/repro/scenarios/",
    "src/repro/experiments/",
    "src/repro/analysis/",
)


def _sanitized(source: SourceFile, node: ast.AST) -> bool:
    """Is ``node`` consumed by an order-insensitive consumer?

    Either directly (``sorted(p.glob(...))``) or as the iterable of a
    comprehension that itself feeds one (``sum(1 for _ in p.glob(...))``).
    """
    parent = source.parent(node)
    if (
        isinstance(parent, ast.Call)
        and node in parent.args
        and isinstance(parent.func, ast.Name)
        and parent.func.id in _LISTING_SANITIZERS
    ):
        return True
    if isinstance(parent, ast.comprehension) and parent.iter is node:
        comp = source.parent(parent)
        return comp is not None and _sanitized(source, comp)
    return False


def _is_set_expr(node: ast.AST) -> bool:
    """A set literal, set comprehension, or a ``set(...)`` call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _record(rule: Rule, source: SourceFile, node: ast.AST, detail: str) -> AuditRecord:
    return AuditRecord(
        rule=rule.id,
        path=source.rel_path,
        line=getattr(node, "lineno", 0),
        severity=rule.severity,
        detail=detail,
        hint=rule.hint,
    )


@file_checker(
    RULE_WALL_CLOCK, RULE_GLOBAL_RNG, RULE_UNSORTED_LISTDIR, RULE_SET_ITERATION
)
def check_determinism(source: SourceFile) -> Iterator[AuditRecord]:
    if not source.rel_path.startswith(DETERMINISM_PREFIXES):
        return
    for node in ast.walk(source.tree):
        if isinstance(node, ast.Call):
            yield from _check_call(source, node)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(node.iter):
                yield _record(
                    RULE_SET_ITERATION, source, node.iter,
                    "for-loop iterates a set in hash order",
                )
        elif isinstance(node, ast.comprehension):
            if _is_set_expr(node.iter):
                yield _record(
                    RULE_SET_ITERATION, source, node.iter,
                    "comprehension iterates a set in hash order",
                )


def _check_call(source: SourceFile, call: ast.Call) -> Iterator[AuditRecord]:
    name = source.call_qualname(call)

    if name in _WALL_CLOCK_CALLS:
        yield _record(
            RULE_WALL_CLOCK, source, call, f"{name}() reads the wall clock"
        )
        return

    if name is not None:
        rng_detail = _global_rng_detail(name, call)
        if rng_detail:
            yield _record(RULE_GLOBAL_RNG, source, call, rng_detail)
            return

    if _is_listing_call(source, call, name) and not _sanitized(source, call):
        shown = name or f".{call.func.attr}(...)"  # type: ignore[union-attr]
        yield _record(
            RULE_UNSORTED_LISTDIR, source, call,
            f"{shown} result used without sorted(...)",
        )
        return

    # list(set(...)): materializes hash order into a sequence.
    if (
        isinstance(call.func, ast.Name)
        and call.func.id in ("list", "tuple")
        and len(call.args) == 1
        and _is_set_expr(call.args[0])
    ):
        yield _record(
            RULE_SET_ITERATION, source, call,
            f"{call.func.id}(set(...)) materializes hash order",
        )


def _global_rng_detail(name: str, call: ast.Call) -> Optional[str]:
    """Non-None when ``name`` is a process-global RNG entry point."""
    for module in ("random", "numpy.random"):
        prefix = module + "."
        if not name.startswith(prefix):
            continue
        func = name[len(prefix):]
        if "." in func or not func:
            return None
        if func[0].isupper():
            return None  # random.Random(seed) etc.: explicitly seeded
        if func == "default_rng":
            if call.args or call.keywords:
                return None  # default_rng(seed): fine
            return "numpy.random.default_rng() without a seed"
        return f"{name}() draws from the process-global RNG"
    return None


def _is_listing_call(
    source: SourceFile, call: ast.Call, name: Optional[str]
) -> bool:
    if name in _LISTING_FUNCS:
        return True
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in _LISTING_METHODS
        # Unresolved receivers count: Path objects are locals, so the
        # method name is all the static evidence there is.
        and name is None
    )
