"""Structure guards for the two promises every figure rests on: a simulated
cell is a pure function of its spec, and it is committed as strict JSON.

The runtime tests probe those promises on the runs they make; the guards
here read the source with :mod:`ast` and fail on the code shapes that break
them anywhere.  One test per rule family:

``determinism.*`` (all of ``src/repro``)
    ``wall-clock``: a wall-clock read (``time.time``, ``datetime.now``, ...);
    ``global-rng``: a draw from the process-global ``random`` /
    ``numpy.random`` state (``random.Random(seed)`` and
    ``default_rng(seed)`` are fine); ``unsorted-listdir``: an
    ``os.listdir`` / ``.glob`` / ``.iterdir`` result not consumed by
    ``sorted`` or another order-free reducer; ``set-iteration``: a loop,
    comprehension, ``list(...)`` or ``tuple(...)`` over a set expression.
``fsio.*`` (``src/repro/scenarios`` outside ``_fsio.py``)
    ``raw-write``: ``open(..., "w" | "x")``, ``write_text``,
    ``write_bytes``; ``stream-dump``: ``json.dump`` onto a handle.  Durable
    state commits through ``repro.scenarios._fsio.atomic_write_json_many``
    (tmp file, fsync, rename), so a crash never leaves a torn file.
``cache.*`` (``src/repro``)
    ``non-finite-literal``: ``float("nan")``, ``math.inf``, ... inside a
    ``@register_scenario`` function; ``lenient-json-dump``: ``json.dump(s)``
    without a literal ``allow_nan=False``.
``registry.*``
    ``unregistered-scenario-ref``: a ``ScenarioSpec(scenario="...")`` or
    ``get_scenario("...")`` literal that :func:`list_scenarios` does not
    know once every ``repro`` module is imported; ``executor-name-drift``:
    ``<...executor...> == "literal"`` with a name not in ``EXECUTOR_NAMES``,
    or a runner ``--executor`` whose choices are not that table.  A second
    function registered under a taken name raises in ``register_scenario``
    itself, at import (``test_scenarios.py::TestRegistry``).
``reach.unused-name`` (top-level names in ``src/repro``)
    a ``def`` or ``class`` that no load in a caller -- ``src/repro``,
    ``bench/`` (its own tests aside) or ``examples/`` -- reaches: a bare
    name counts in the defining module or where it is imported from that
    module or a package above it, an ``x.name`` attribute load anywhere.
    Imports and ``__all__`` are not uses; ``@register_scenario`` is (the
    registry calls it).  Code only tests call is dead code with tests.
``reach.unused-member`` (methods and properties of ``src/repro`` classes)
    a member, dunders aside, that nothing in a caller reaches: an
    ``x.name`` attribute load anywhere, a string literal equal to its name
    (``getattr(sim, "schedule_fast")``), or a bare-name load in its own
    class body (``restart = start``).  Names are matched, not types, so a
    member shares its reach with every same-named member.  A member that
    only a test oracle reads -- a golden-digest input, a statistic a
    ``benchmarks/`` claim asserts, a fuzz reference -- is allowlisted.
``reach.unused-option`` (every defaulted parameter in ``src/repro``)
    a defaulted parameter of a module-level function, a method or a class
    constructor -- or a defaulted field of a config dataclass
    (``CONFIG_DATACLASSES``) -- that no call from ``src/repro``, ``bench/``
    (its own tests aside), ``examples/`` or ``benchmarks/`` passes: by
    keyword, by position, through a ``**`` mapping, a ``**kwargs`` wrapper
    that forwards it (``TfrcFlow`` -> ``TfrcSender``), a call handing the
    callable on (``once(benchmark, f, ...)``) or a ``(f, {...})`` table row.
    Tests are not callers: an option only a test sets is a constant the
    test assigns on the instance.  ``seed`` is exempt: every entry point
    keeps it for the seed-aggregated claims.
``imports.unused`` (``src/repro``)
    an import binding its module never reads; a package ``__init__``'s
    imports are its re-exports, and a name another module imports from the
    module counts as read.
``tests.missing-slow-marker`` (``tests/``)
    a test without ``@pytest.mark.slow`` (on it, its class or the module's
    ``pytestmark``) whose visible work -- sweep-grid cells times constant
    ``range`` loops times the largest ``duration`` literal -- reaches
    ``SLOW_WORK_THRESHOLD`` simulated seconds, or whose grid alone reaches
    ``SLOW_CELL_THRESHOLD`` cells.  CI's fast tier runs ``-m "not slow"``.

Each checker is a function over ``(rel_path, text)`` pairs returning
:class:`Finding` rows; the live tests feed it the repository, each module
parsed once through :func:`_parse`'s cache, and the negative cases feed it a
planted tree.  A finding is accepted only by its family's allowlist, a
``{(path, rule): reason}`` dict, and an entry that excuses no finding is
stale and fails the guard too.
"""

import argparse
import ast
import builtins
import functools
import importlib
import pkgutil
from pathlib import Path
from textwrap import dedent
from typing import NamedTuple

import pytest

import repro
from repro.experiments.runner import build_parser
from repro.scenarios import list_scenarios
from repro.scenarios.executors import EXECUTOR_NAMES

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = "src/repro/"
SCENARIOS = SRC + "scenarios/"
FSIO = SCENARIOS + "_fsio.py"
TESTS = "tests/"

#: flag unmarked tests whose visible simulated work (grid cells x duration
#: seconds) reaches this...
SLOW_WORK_THRESHOLD = 600.0
#: ...or whose grid alone reaches this many cells.
SLOW_CELL_THRESHOLD = 256


class Finding(NamedTuple):
    path: str
    line: int
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.detail}"


# ------------------------------------------------------------------ parsing


@functools.lru_cache(maxsize=None)
def _repo_sources():
    """``(rel_path, text)`` of every module under ``src/repro``, ``tests``,
    ``bench``, ``benchmarks`` and ``examples``."""
    return tuple(
        (path.relative_to(REPO_ROOT).as_posix(), path.read_text(encoding="utf-8"))
        for top in ("src/repro", "tests", "bench", "benchmarks", "examples")
        for path in sorted((REPO_ROOT / top).rglob("*.py"))
    )


@functools.lru_cache(maxsize=None)
def _parse(rel_path, text):
    """``(tree, nodes, aliases)`` of one module, parsed and walked once."""
    tree = ast.parse(text, filename=rel_path)
    nodes = list(ast.walk(tree))
    return tree, nodes, _import_aliases(nodes)


def _import_aliases(nodes):
    """Local name -> canonical dotted name, from the module's imports:
    ``import time as t`` and ``from time import time`` both give
    ``time.time``.  Relative imports never hide a stdlib module."""
    aliases = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".", 1)[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _qualname(node, aliases):
    """Canonical dotted name of a Name/Attribute chain rooted in an import,
    else None: ``self.time()`` never resolves to ``time.time``."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _qualname(node.value, aliases)
        return f"{base}.{node.attr}" if base else None
    return None


def _calls_named(call, aliases, bare):
    """Does ``call`` invoke ``bare``, directly or as a module attribute?"""
    if isinstance(call.func, ast.Name) and call.func.id == bare:
        return True
    qual = _qualname(call.func, aliases)
    return qual is not None and qual.endswith("." + bare)


def _modules(sources, prefix, exclude=()):
    """``(rel_path, tree, nodes, aliases)`` of each source under ``prefix``."""
    for rel, text in sources:
        if rel.startswith(prefix) and rel not in exclude:
            yield (rel, *_parse(rel, text))


def _by_rule(finding):
    return finding.path, finding.rule


def _unexcused(findings, allowlist, key=_by_rule):
    """Findings no allowlist entry excuses, and the entries excusing none."""
    used = {key(f) for f in findings}
    return (
        [f for f in findings if key(f) not in allowlist],
        sorted(set(allowlist) - used),
    )


def _assert_clean(findings, allowlist, key=_by_rule):
    assert all(reason.strip() for reason in allowlist.values())
    left, stale = _unexcused(findings, allowlist, key)
    assert not left, "\n".join(map(str, left))
    assert not stale, f"allowlist entries that excuse nothing (delete them): {stale}"


# -------------------------------------------------------------- determinism

WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "time.ctime", "time.asctime", "time.strftime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})
#: consumers for which a listing's order cannot matter.
ORDER_FREE = frozenset(
    {"sorted", "set", "frozenset", "len", "sum", "any", "all", "max", "min"}
)
LISTING_CALLS = frozenset({"os.listdir", "os.scandir"})
#: listing methods; their receivers are local Path objects, so the method
#: name is all the static evidence there is.
LISTING_METHODS = frozenset({"iterdir", "glob", "rglob"})
COMPREHENSIONS = (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)

DETERMINISM_ALLOWLIST = {
    ("src/repro/scenarios/filequeue.py", "determinism.wall-clock"):
        "queue protocol: lease clocks (fs_now's fallback) and file-name "
        "nonces are wall-clock state by design; cell results never read them",
    ("src/repro/scenarios/filequeue.py", "determinism.unsorted-listdir"):
        "queue protocol: directory counts and claim scans are filesystem "
        "state; which cell is claimed first never changes its result",
    ("src/repro/scenarios/faults.py", "determinism.wall-clock"):
        "fault layer: skewed lease stamps manipulate real time on purpose; "
        "fault decisions stay pure sha256",
}


def _is_set_expr(node):
    """A set literal, set comprehension, or ``set(...)`` / ``frozenset(...)``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _order_free_operands(nodes):
    """Nodes consumed by an order-free call: its arguments, and the
    iterables of comprehensions that are (``sum(1 for _ in p.glob(...))``)."""

    def operands(node):
        if isinstance(node, COMPREHENSIONS):
            for generator in node.generators:
                yield from operands(generator.iter)
        else:
            yield node

    return {
        operand
        for call in nodes
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id in ORDER_FREE
        for arg in call.args
        for operand in operands(arg)
    }


def _global_rng(name, call):
    """Why ``name(...)`` draws from process-global RNG state, or None."""
    for module in ("random.", "numpy.random."):
        if not name.startswith(module):
            continue
        func = name[len(module):]
        if not func or "." in func or func[0].isupper():
            return None  # random.Random(seed) etc.: explicitly seeded
        if func == "default_rng":
            if call.args or call.keywords:
                return None
            return "numpy.random.default_rng() without a seed"
        return f"{name}() draws from the process-global RNG"
    return None


def check_determinism(sources):
    """``determinism.*`` over every module under ``src/repro``."""
    findings = []
    for rel, _, nodes, aliases in _modules(sources, SRC):
        order_free = _order_free_operands(nodes)

        def hit(rule, node, detail):
            findings.append(Finding(rel, node.lineno, rule, detail))

        for node in nodes:
            if isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expr(node.iter):
                hit("determinism.set-iteration", node.iter,
                    "for-loop iterates a set in hash order")
            elif isinstance(node, ast.comprehension) and _is_set_expr(node.iter):
                hit("determinism.set-iteration", node.iter,
                    "comprehension iterates a set in hash order")
            if not isinstance(node, ast.Call):
                continue
            name = _qualname(node.func, aliases)
            rng = name and _global_rng(name, node)
            method = isinstance(node.func, ast.Attribute) and node.func.attr
            if name in WALL_CLOCK_CALLS:
                hit("determinism.wall-clock", node, f"{name}() reads the wall clock")
            elif rng:
                hit("determinism.global-rng", node, rng)
            elif (
                name in LISTING_CALLS
                or (name is None and method in LISTING_METHODS)
            ) and node not in order_free:
                hit("determinism.unsorted-listdir", node,
                    f"{name or '.' + method + '(...)'} result used without sorted(...)")
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and len(node.args) == 1
                and _is_set_expr(node.args[0])
            ):
                hit("determinism.set-iteration", node,
                    f"{node.func.id}(set(...)) materializes hash order")
    return sorted(findings)


def test_determinism_guard():
    _assert_clean(check_determinism(_repo_sources()), DETERMINISM_ALLOWLIST)


# --------------------------------------------------------------------- fsio

FSIO_ALLOWLIST = {
    ("src/repro/scenarios/faults.py", "fsio.raw-write"):
        "write_torn is the simulated crashed write the atomic helper "
        "prevents; only the fault-injection sites call it",
}


def _write_mode(call):
    """The mode of ``open(path, mode)`` / ``path.open(mode)`` when it
    creates or truncates content, else None.  Append mode is not a content
    write: the queue's clock sentinel opens with ``"a"`` for its mtime."""
    if isinstance(call.func, ast.Name) and call.func.id == "open":
        positional = call.args[1:2]
    elif isinstance(call.func, ast.Attribute) and call.func.attr == "open":
        positional = call.args[:1]
    else:
        return None
    modes = positional + [k.value for k in call.keywords if k.arg == "mode"]
    mode = modes[-1] if modes else None
    if (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and ("w" in mode.value or "x" in mode.value)
    ):
        return mode.value
    return None


def check_fsio(sources):
    """``fsio.*`` over ``src/repro/scenarios`` outside ``_fsio.py``."""
    findings = []
    for rel, _, nodes, aliases in _modules(sources, SCENARIOS, exclude=(FSIO,)):
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            mode = _write_mode(node)
            if mode is not None:
                findings.append(Finding(rel, node.lineno, "fsio.raw-write",
                                        f'raw open(..., "{mode}")'))
            elif isinstance(node.func, ast.Attribute) and node.func.attr in (
                "write_text", "write_bytes",
            ):
                findings.append(Finding(rel, node.lineno, "fsio.raw-write",
                                        f".{node.func.attr}()"))
            elif _qualname(node.func, aliases) == "json.dump":
                findings.append(Finding(rel, node.lineno, "fsio.stream-dump",
                                        "json.dump streams onto a file handle"))
    return sorted(findings)


def test_fsio_guard():
    _assert_clean(check_fsio(_repo_sources()), FSIO_ALLOWLIST)


# -------------------------------------------------------------------- cache

NON_FINITE_NAMES = frozenset({
    "math.nan", "math.inf",
    "numpy.nan", "numpy.inf", "numpy.NaN", "numpy.Inf", "numpy.NINF",
})
NON_FINITE_STRINGS = frozenset(
    {"nan", "inf", "infinity", "-inf", "-infinity", "+inf", "+infinity"}
)
CACHE_ALLOWLIST = {}


def _registered_scenarios(nodes, aliases):
    """Every ``@register_scenario(...)`` function, nested ones included."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
            isinstance(d, ast.Call) and _calls_named(d, aliases, "register_scenario")
            for d in node.decorator_list
        ):
            yield node


def _non_finite(node, aliases):
    """How ``node`` spells a non-finite float, or None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
        and node.args[0].value.strip().lower() in NON_FINITE_STRINGS
    ):
        return f'float("{node.args[0].value}")'
    qual = _qualname(node, aliases)
    return qual if qual in NON_FINITE_NAMES else None


def _lenient_dump(call, aliases):
    """Why a ``json.dump(s)`` call may emit NaN, or None."""
    name = _qualname(call.func, aliases)
    if name not in ("json.dump", "json.dumps"):
        return None
    for keyword in call.keywords:
        if keyword.arg is None:
            return None  # **kwargs: the flag is not visible
        if keyword.arg == "allow_nan":
            value = keyword.value
            if isinstance(value, ast.Constant) and value.value is False:
                return None
            return f"{name}(...) with allow_nan not literally False"
    return f"{name}(...) without allow_nan=False"


def check_cache(sources):
    """``cache.*`` over every module under ``src/repro``."""
    findings = []
    for rel, _, nodes, aliases in _modules(sources, SRC):
        for func in _registered_scenarios(nodes, aliases):
            for node in ast.walk(func):
                spelled = _non_finite(node, aliases)
                if spelled:
                    findings.append(Finding(
                        rel, node.lineno, "cache.non-finite-literal",
                        f"{spelled} in registered scenario {func.name}()",
                    ))
        for node in nodes:
            lenient = isinstance(node, ast.Call) and _lenient_dump(node, aliases)
            if lenient:
                findings.append(Finding(
                    rel, node.lineno, "cache.lenient-json-dump", lenient
                ))
    return sorted(findings)


def test_cache_guard():
    _assert_clean(check_cache(_repo_sources()), CACHE_ALLOWLIST)


# ----------------------------------------------------------------- registry

REGISTRY_ALLOWLIST = {}


def _import_every_repro_module():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _scenario_ref(call, aliases):
    """The string literal a ``ScenarioSpec(...)`` / ``get_scenario(...)``
    call names as its scenario, else None."""
    if _calls_named(call, aliases, "ScenarioSpec"):
        named = [k.value for k in call.keywords if k.arg == "scenario"]
        ref = (named or call.args[:1] or [None])[0]
    elif _calls_named(call, aliases, "get_scenario"):
        ref = (call.args[:1] or [None])[0]
    else:
        return None
    if isinstance(ref, ast.Constant) and isinstance(ref.value, str):
        return ref.value
    return None


def _mentions_executor(node):
    if isinstance(node, ast.Name):
        return "executor" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "executor" in node.attr.lower()
    return False


def check_registry(sources, scenarios, executors):
    """``registry.*`` over ``src/repro``: scenario-name literals must be in
    ``scenarios``, and ``...executor... == "literal"`` in ``executors``."""
    findings = []
    for rel, _, nodes, aliases in _modules(sources, SRC):
        for node in nodes:
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(_mentions_executor(op) for op in operands):
                    findings.extend(
                        Finding(rel, node.lineno, "registry.executor-name-drift",
                                f"executor compared against {op.value!r}, "
                                "which is not in EXECUTOR_NAMES")
                        for op in operands
                        if isinstance(op, ast.Constant)
                        and isinstance(op.value, str)
                        and op.value not in executors
                    )
            ref = isinstance(node, ast.Call) and _scenario_ref(node, aliases)
            if ref and ref not in scenarios:
                findings.append(Finding(
                    rel, node.lineno, "registry.unregistered-scenario-ref",
                    f"scenario name {ref!r} is not registered",
                ))
    return sorted(findings)


def test_registry_guard():
    _import_every_repro_module()
    _assert_clean(
        check_registry(_repo_sources(), set(list_scenarios()), set(EXECUTOR_NAMES)),
        REGISTRY_ALLOWLIST,
    )


def _runner_executor_choices():
    [action] = [
        a for a in build_parser()._actions if "--executor" in a.option_strings
    ]
    return list(action.choices)


def test_runner_executor_choices_are_the_executor_table():
    assert _runner_executor_choices() == list(EXECUTOR_NAMES)


# -------------------------------------------------------------------- reach

#: where a use counts; ``bench/tests`` are the harness's own tests.
CALLERS = (SRC, "bench/", "examples/")
NOT_CALLERS = ("bench/tests/",)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
BUILTINS = frozenset(dir(builtins))

#: ``(path, name)`` -> why a name only tests reach is kept.
REACH_ALLOWLIST = {
    ("src/repro/analysis/selfsimilarity.py", "hurst_variance_time"):
        "census row traffic: the Hurst estimator test_selfsimilarity.py "
        "checks the ON/OFF background load's self-similarity with",
    ("src/repro/analysis/selfsimilarity.py", "expected_hurst_for_pareto"):
        "census row traffic: the closed-form Hurst exponent that "
        "test_selfsimilarity.py compares the estimate against",
    ("src/repro/analysis/stats.py", "jain_fairness_index"):
        "test oracle: benchmarks/test_fig07_throughput_variance.py "
        "asserts fig07's fairness claim with it",
    ("src/repro/baselines/tear.py", "TearFlow"):
        "census row baselines: TEAR's flow wiring, pinned by a golden digest",
    ("src/repro/core/equations.py", "simple_response_rate"):
        "test oracle: the paper's simple sqrt(1.5/p) equation that "
        "test_core_equations.py checks the full equation against",
    ("src/repro/core/loss_intervals.py", "EwmaLossIntervals"):
        "paper ablation (section 3.1): the EWMA estimator the paper "
        "rejects, benchmarks/test_ablation_estimators.py",
    ("src/repro/core/loss_intervals.py", "DynamicHistoryWindow"):
        "paper ablation (section 3.1): the dynamic history window the "
        "paper rejects, benchmarks/test_ablation_estimators.py",
    ("src/repro/scenarios/faults.py", "install"):
        "census row scenarios (fault injection): the chaos tests activate "
        "a plan in the coordinator process with it; workers read the env",
}


def _by_name(finding):
    return finding.path, finding.detail


def _module_name(rel):
    """``src/repro/net/path.py`` -> ``repro.net.path``; a package's
    ``__init__`` -> the package."""
    parts = rel[len("src/"):-len(".py")].split("/")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _packages(module):
    """``repro.net.path`` -> itself, ``repro.net``, ``repro``: the modules a
    name defined in it may be imported from."""
    parts = module.split(".")
    return [".".join(parts[:i]) for i in range(len(parts), 0, -1)]


def check_reach(sources):
    """``reach.unused-name`` over the top-level names of ``src/repro``; the
    finding's detail is the name."""
    attrs, names, defs = set(), set(), []
    for rel, text in sources:
        if not rel.startswith(CALLERS) or rel.startswith(NOT_CALLERS):
            continue
        tree, nodes, aliases = _parse(rel, text)
        module = _module_name(rel) if rel.startswith(SRC) else None
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                qual = aliases.get(node.id)
                names.add(qual.rpartition(".")[::2] if qual else (module, node.id))
        if module:
            registered = set(_registered_scenarios(tree.body, aliases))
            defs += [
                (rel, module, node) for node in tree.body
                if isinstance(node, DEFINITIONS) and node not in registered
            ]
    return sorted(
        Finding(rel, node.lineno, "reach.unused-name", node.name)
        for rel, module, node in defs
        if node.name not in attrs
        and not any((m, node.name) in names for m in _packages(module))
    )


def test_reach_guard():
    _assert_clean(check_reach(_repo_sources()), REACH_ALLOWLIST, _by_name)


#: ``(path, "Class.member")`` -> why a member only tests reach is kept.
MEMBER_ALLOWLIST = {
    ("src/repro/core/loss_intervals.py", "AverageLossIntervals.open_interval"):
        "golden-digest input: tfrc_lossy_path pins s0 after the run",
    ("src/repro/experiments/fig19_increase.py", "Fig19Result.mean_slope"):
        "claim statistic: benchmarks/test_fig19_increase_rate.py and "
        "test_ablation_discounting.py bound the increase rate (~0.12 "
        "packets/RTT per RTT, ~0.3 with discounting)",
    ("src/repro/experiments/fig19_increase.py",
     "Fig19Result.increase_start_time"):
        "claim statistic: benchmarks/test_fig19_increase_rate.py asserts "
        "the increase starts 0.2-1.5 s after loss stops",
    ("src/repro/experiments/fig20_halving.py", "Fig21Result.defined"):
        "claim statistic: benchmarks/test_fig21_halving_sweep.py asserts "
        "over the drop rates whose rate halved",
    ("src/repro/net/monitor.py", "LinkMonitor.drops"):
        "golden-digest input: the mixed-dumbbell runs hash the drop list",
    ("src/repro/sim/process.py", "Timer.expiry"):
        "fuzz reference: test_fast_timer.py's randomized schedules compare "
        "FastTimer's expiry with this one after every operation",
    ("src/repro/sim/process.py", "FastTimer.expiry"):
        "fuzz reference: compared with Timer.expiry after every operation "
        "of test_fast_timer.py's randomized schedules",
}
METHODS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _class_body_loads(cls):
    """Bare names the class body loads outside its methods: an alias such
    as ``restart = start`` reaches ``start``."""
    return {
        node.id
        for stmt in cls.body if not isinstance(stmt, METHODS)
        for node in ast.walk(stmt)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def check_member_reach(sources):
    """``reach.unused-member`` over the methods and properties of every
    ``src/repro`` class; the finding's detail is ``Class.member``."""
    reached, members = set(), []
    for rel, text in sources:
        if not rel.startswith(CALLERS) or rel.startswith(NOT_CALLERS):
            continue
        tree, nodes, _ = _parse(rel, text)
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reached.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reached.add(node.value)
            elif isinstance(node, ast.ClassDef) and rel.startswith(SRC):
                aliased = _class_body_loads(node)
                members += [
                    (rel, node.name, member, aliased) for member in node.body
                    if isinstance(member, METHODS) and not _is_dunder(member.name)
                ]
    return sorted(
        Finding(rel, member.lineno, "reach.unused-member", f"{cls}.{member.name}")
        for rel, cls, member, aliased in members
        if member.name not in reached and member.name not in aliased
    )


def test_member_reach_guard():
    _assert_clean(
        check_member_reach(_repo_sources()), MEMBER_ALLOWLIST, _by_name
    )


#: where a call that passes an option counts: the member guard's callers
#: plus the paper-ablation benchmarks.  A test never does.
OPTION_CALLERS = CALLERS + ("benchmarks/",)
#: every figure entry point keeps ``seed``: the seed-aggregated claims
#: (ROADMAP item 4) sweep it over each figure, whether or not a run here
#: passes it yet.
OPTION_EXEMPT = frozenset({"seed"})
#: the dataclasses a run is configured with; their defaulted fields are
#: options.  A result dataclass's defaults are what a run fills in.
CONFIG_DATACLASSES = frozenset({
    "DumbbellConfig", "FaultPlan", "GridCellParams", "PathProfile", "RedParams",
    "ScenarioSpec",
})
#: ``(path, "owner.param")`` -> why an option no caller passes is kept.
OPTION_ALLOWLIST = {
    ("src/repro/experiments/fig11_onoff.py", "run_one.tracer"):
        "golden-digest input: the traced fig11 run hashes the records of the "
        "tracer it hands in; a figure run traces nothing",
    ("src/repro/net/queues.py", "REDQueue.weight"):
        "fuzz reference: the RED twin-congruence and fast-path fuzzers draw "
        "w_q to hold REDQueue to red_update_vec (both go with ROADMAP 9a)",
    ("src/repro/net/queues.py", "REDQueue.gentle"):
        "fuzz reference: the RED twin-congruence and fast-path fuzzers run "
        "both RED variants against red_update_vec (ROADMAP 9a)",
    ("src/repro/scenarios/builders.py", "PathProfile.queue_type"):
        "spec-hash input: to_dict writes it into every internet-path cell's "
        "topology group, so dropping the field moves every cell key",
    ("src/repro/scenarios/executors.py", "FileQueueExecutor.poll_interval"):
        "queue transport, deleted whole by ROADMAP 10: its tests shorten the "
        "poll to stay in the fast tier; the worker CLI has the same knob",
    ("src/repro/scenarios/executors.py", "FileQueueExecutor.cell_timeout"):
        "queue transport, deleted whole by ROADMAP 10: the coordinator-side "
        "twin of the worker CLI's --cell-timeout, handed to local workers",
    ("src/repro/scenarios/fsck.py", "main.argv"):
        "console-script entry point: main(argv) is the CLI driven in process, "
        "as bench drives runner.main",
}


class _Callable(NamedTuple):
    """What a call may pass to: a function, a method or a constructor."""

    rel: str
    label: str          # ``func``, ``Class.method`` or ``Class``
    params: tuple       # positional parameters, ``self`` / ``cls`` dropped
    named: frozenset    # every parameter name
    options: tuple      # ``(name, line)`` of each defaulted parameter
    node: object        # the ``def`` (None for a dataclass's fields)


def _defaulted(func):
    """Names of ``func``'s positional and keyword-only parameters that have
    a default."""
    positional = func.args.posonlyargs + func.args.args
    return [
        arg.arg for arg in positional[len(positional) - len(func.args.defaults):]
    ] + [
        arg.arg
        for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults)
        if default is not None
    ]


def _dict_keys(node):
    """The string keys of a ``{...}`` literal or a ``dict(k=...)`` call."""
    if isinstance(node, ast.Dict):
        return {
            key.value for key in node.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
        return {keyword.arg for keyword in node.keywords if keyword.arg}
    return set()


def _decorators(node):
    return {
        getattr(dec, "id", None) or getattr(dec, "attr", None)
        for dec in (
            d.func if isinstance(d, ast.Call) else d for d in node.decorator_list
        )
    }


def _function_callable(rel, label, func, bound):
    positional = [a.arg for a in func.args.posonlyargs + func.args.args]
    positional = positional[1:] if bound else positional
    named = positional + [a.arg for a in func.args.kwonlyargs]
    options = tuple((name, func.lineno) for name in _defaulted(func))
    return _Callable(rel, label, tuple(positional), frozenset(named), options, func)


def _dataclass_callable(rel, cls):
    """A config dataclass's generated constructor: its ``init`` fields in
    order, those with a default (or ``field(default...)``) as options."""
    params, options = [], []
    for stmt in cls.body:
        if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            if getattr(keywords.get("init"), "value", True) is False:
                continue
            defaulted = "default" in keywords or "default_factory" in keywords
        else:
            defaulted = value is not None
        params.append(stmt.target.id)
        if defaulted:
            options.append((stmt.target.id, stmt.lineno))
    return _Callable(
        rel, cls.name, tuple(params), frozenset(params), tuple(options), None
    )


def _option_module(rel):
    """``src/repro/net/path.py`` -> ``repro.net.path``; ``bench/run.py`` ->
    ``bench.run``."""
    return _module_name(rel) if rel.startswith(SRC) else rel[:-3].replace("/", ".")


def _scoped(node, cls=None, func=None):
    """Every node under ``node`` with its innermost enclosing class and
    function."""
    yield node, cls, func
    if isinstance(node, ast.ClassDef):
        cls = node
    elif isinstance(node, METHODS):
        func = node
    for child in ast.iter_child_nodes(node):
        yield from _scoped(child, cls, func)


def _option_callables(modules):
    """Every function, method and constructor the callers define, as
    ``qual -> _Callable``; ``method name -> [qual]``; the bases of each class
    that inherits its constructor; module-level ``{...: callable}`` tables;
    and ``name -> qual`` for each ``from m import name`` (re-exports)."""
    callables, methods, inherits, tables, imported = {}, {}, {}, {}, {}
    for rel, module, tree, aliases in modules:
        for node in tree.body:
            qual = f"{module}.{getattr(node, 'name', '')}"
            if isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    imported[f"{module}.{alias.asname or alias.name}"] = (
                        f"{node.module}.{alias.name}"
                    )
            elif isinstance(node, METHODS):
                callables[qual] = _function_callable(rel, node.name, node, False)
            elif isinstance(node, ast.ClassDef):
                for member in node.body:
                    if not isinstance(member, METHODS):
                        continue
                    bound = "staticmethod" not in _decorators(member)
                    if member.name == "__init__":
                        callables[qual] = _function_callable(
                            rel, node.name, member, bound
                        )
                    elif not _is_dunder(member.name):
                        label = f"{node.name}.{member.name}"
                        callables[f"{qual}.{member.name}"] = _function_callable(
                            rel, label, member, bound
                        )
                        methods.setdefault(member.name, []).append(
                            f"{qual}.{member.name}"
                        )
                if node.name in CONFIG_DATACLASSES and qual not in callables:
                    callables[qual] = _dataclass_callable(rel, node)
                if qual not in callables:
                    inherits[qual] = [
                        _qualname(base, aliases) or f"{module}.{ast.unparse(base)}"
                        for base in node.bases
                    ]
            elif (
                isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and [type(t) for t in node.targets] == [ast.Name]
            ):
                tables[f"{module}.{node.targets[0].id}"] = (
                    module, aliases, node.value.values
                )
    return callables, methods, inherits, tables, imported


def check_option_reach(sources):
    """``reach.unused-option`` over every defaulted parameter in
    ``src/repro``: of a module-level function (detail ``func.param``), a
    method (``Class.method.param``), a constructor or a config dataclass
    (``Class.param``).

    A call passes a parameter by keyword, by position or through a ``**``
    mapping bound to a ``{...}`` / ``dict(...)`` literal in its module.  The
    callee is resolved through the caller's imports (and the re-exports of
    the modules it imports from), by bare name in its own module, to the
    class whose constructor a class without one inherits, to the bases for
    ``super().__init__``, to the class for ``cls(...)`` in a classmethod, to
    a table's values for ``TABLE[key](...)``, and by name for ``x.method``.
    A call through a name the checker cannot bind (a parameter or local such
    as ``flow_cls``) passes to the constructor of every class its module
    refers to as a value.  A call that takes a callable as an argument forwards the
    arguments after it to it (``once(benchmark, f, ...)``,
    ``functools.partial``); a table row ``(f, {"duration": 12.0}, ...)``
    passes its mapping's keys.  A callable with a ``**kwargs`` parameter
    forwards every keyword it does not name to each call in its body that
    unpacks a ``**`` mapping or hands the ``**kwargs`` dict on, and the
    callables handed on with it (``TfrcFlow`` -> ``TfrcSender``,
    ``DumbbellTestbed.tfrc`` -> ``_flow`` -> ``TfrcFlow``).
    """
    modules = [
        (rel, _option_module(rel), *_parse(rel, text)[::2])
        for rel, text in sources
        if rel.startswith(OPTION_CALLERS) and not rel.startswith(NOT_CALLERS)
    ]
    callables, methods, inherits, tables, imported = _option_callables(modules)
    passed = {qual: set() for qual in callables}
    forwards = {}

    def defined(qual):
        """Follow ``qual`` through the imports that re-export it."""
        seen = set()
        while qual in imported and qual not in seen:
            seen.add(qual)
            qual = imported[qual]
        return qual

    def constructor(qual, seen=()):
        """What a call to ``qual`` runs: a class without its own
        constructor runs its bases'."""
        qual = defined(qual)
        if qual in callables or qual in seen:
            return [qual] if qual in callables else []
        return [
            target for base in inherits.get(qual, ())
            for target in constructor(base, (*seen, qual))
        ]

    def is_class(qual):
        target = callables.get(qual)
        return qual in inherits or target is not None and (
            target.node is None or target.node.name == "__init__"
        )

    def table_targets(qual):
        module, aliases, values = tables[qual]
        return [
            target for value in values
            for target in constructor(
                _qualname(value, aliases) or f"{module}.{ast.unparse(value)}"
            )
        ]

    for rel, module, tree, aliases in modules:
        scope = list(_scoped(tree))
        local = {
            node.name for node in tree.body if isinstance(node, DEFINITIONS)
        } | {
            target.id for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)
        }

        def qualify(ref):
            qual = _qualname(ref, aliases)
            if qual is None and isinstance(ref, ast.Name):
                qual = f"{module}.{ref.id}"
            return qual

        mappings, picked = {}, {}
        for node, _, _ in scope:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            name = getattr(node.targets[0], "id", None)
            value = node.value
            if name and _dict_keys(value):
                mappings.setdefault(name, set()).update(_dict_keys(value))
            if isinstance(value, ast.Call) and getattr(value.func, "attr", "") == "get":
                value = value.func  # TABLE.get(key) picks from TABLE too
            if name and isinstance(value, (ast.Subscript, ast.Attribute)):
                table = defined(qualify(value.value) or "")
                if table in tables:
                    picked[name] = table_targets(table)

        def resolve(ref):
            if isinstance(ref, ast.Name) and ref.id in picked:
                return picked[ref.id]
            qual = qualify(ref)
            targets = constructor(qual) if qual else []
            if targets or not isinstance(ref, ast.Attribute):
                return targets
            return methods.get(ref.attr, []) if ref.attr != "__init__" else []

        def callees(call, cls, func):
            ref = call.func
            if cls is not None and getattr(ref, "attr", None) == "__init__":
                return [
                    target for base in cls.bases
                    for target in constructor(qualify(base) or "")
                ]
            if (
                cls is not None and func is not None and isinstance(ref, ast.Name)
                and "classmethod" in _decorators(func)
                and func.args.args and ref.id == func.args.args[0].arg
            ):
                return constructor(f"{module}.{cls.name}")
            return resolve(ref)

        called = {id(node.func) for node, _, _ in scope if isinstance(node, ast.Call)}
        # the classes the module refers to as values, not in call position
        values = {
            target for node, _, _ in scope
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load) and id(node) not in called
            and is_class(defined(qualify(node) or ""))
            for target in constructor(qualify(node))
        }

        def pass_args(qual, args, keywords):
            target = callables[qual]
            passed[qual].update(target.params[:len(args)])
            for keyword in keywords:
                if keyword.arg:
                    passed[qual].add(keyword.arg)
                elif isinstance(keyword.value, ast.Name):
                    passed[qual].update(mappings.get(keyword.value.id, ()))
                else:
                    passed[qual].update(_dict_keys(keyword.value))

        def unbound(ref):
            """A bare name no import, module-level binding or builtin gives:
            a parameter or local such as ``flow_cls``."""
            return isinstance(ref, ast.Name) and not (
                ref.id in aliases or ref.id in local or ref.id in BUILTINS
            )

        calls = [entry for entry in scope if isinstance(entry[0], ast.Call)]
        for call, cls, func in calls:
            targets = callees(call, cls, func)
            if not targets and unbound(call.func):
                targets = values
            for qual in targets:
                pass_args(qual, call.args, call.keywords)
            handed = []
            for index, arg in enumerate(call.args):
                for qual in resolve(arg):
                    handed.append(qual)
                    pass_args(qual, call.args[index + 1:], call.keywords)
            if func is None or func.args.kwarg is None:
                continue
            owner = f"{module}.{cls.name}" if cls is not None else module
            owner = owner if func.name == "__init__" else f"{owner}.{func.name}"
            unpacks = any(
                k.arg is None and isinstance(k.value, ast.Name) for k in call.keywords
            )
            hands_on = any(
                getattr(arg, "id", None) == func.args.kwarg.arg for arg in call.args
            )
            if owner in callables and (unpacks or hands_on):
                forwards.setdefault(owner, set()).update([*targets, *handed])
        for node, _, _ in scope:
            if isinstance(node, (ast.Tuple, ast.List)):
                for ref, mapping in zip(node.elts, node.elts[1:]):
                    for qual in resolve(ref):
                        passed[qual].update(_dict_keys(mapping))

    changed = True
    while changed:
        changed = False
        for qual, targets in forwards.items():
            extra = passed[qual] - callables[qual].named
            for target in targets:
                if not extra <= passed[target]:
                    passed[target] |= extra
                    changed = True
    return sorted(
        Finding(target.rel, line, "reach.unused-option", f"{target.label}.{name}")
        for qual, target in callables.items() if target.rel.startswith(SRC)
        for name, line in target.options
        if name not in passed[qual] and name not in OPTION_EXEMPT
    )


def test_option_reach_guard():
    _assert_clean(
        check_option_reach(_repo_sources()), OPTION_ALLOWLIST, _by_name
    )


# ------------------------------------------------------------------ imports

#: ``(path, name)`` -> why an import nothing in its module reads is kept.
IMPORTS_ALLOWLIST = {}


def _imported_names(nodes):
    """``(local name, line, dotted source)`` of each import binding."""
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".", 1)[0], node.lineno, None
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno, node.module


def _read_names(nodes):
    """Every name the module reads: loads and the names inside string
    annotations.  ``__all__`` is not a read: listing a name does not make
    its import used."""
    read = {node.id for node in nodes if isinstance(node, ast.Name)}
    annotations = [
        node.annotation for node in nodes
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation
    ] + [node.returns for node in nodes if isinstance(node, METHODS) and node.returns]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    parsed = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                read |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return read


def check_unused_imports(sources):
    """``imports.unused`` over ``src/repro``: an import binding its module
    never reads.  A package ``__init__``'s imports are its re-exports, and a
    name another module imports from this one is re-exported too."""
    modules = list(_modules(sources, SRC))
    imported_from = {
        (node.module, alias.name)
        for _, _, nodes, _ in modules for node in nodes
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }
    findings = []
    for rel, _, nodes, _ in modules:
        if rel.endswith("/__init__.py"):
            continue
        module = _module_name(rel)
        read = _read_names(nodes)
        findings += [
            Finding(rel, line, "imports.unused", name)
            for name, line, _ in _imported_names(nodes)
            if name not in read and (module, name) not in imported_from
        ]
    return sorted(findings)


def test_unused_import_guard():
    _assert_clean(
        check_unused_imports(_repo_sources()), IMPORTS_ALLOWLIST, _by_name
    )


# -------------------------------------------------------------- test tiers

TESTS_ALLOWLIST = {}
SINGLE_CELL_CALLS = frozenset({"run_scenario", "run_single_cell"})


def _is_slow_marker(node):
    """``pytest.mark.slow`` (or any ``...mark.slow`` chain), called or not."""
    if isinstance(node, ast.Call):
        node = node.func
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "slow"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "mark"
    )


def _module_marked_slow(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "pytestmark" for t in node.targets
        ):
            values = (
                node.value.elts
                if isinstance(node.value, (ast.List, ast.Tuple))
                else [node.value]
            )
            if any(_is_slow_marker(v) for v in values):
                return True
    return False


def _max_duration(tree):
    """The largest ``duration=<number>`` keyword or ``"...duration":
    <number>`` dict entry under ``tree``, or None."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            found += [k.value for k in node.keywords if k.arg == "duration"]
        elif isinstance(node, ast.Dict):
            found += [
                value for key, value in zip(node.keys, node.values)
                if isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and key.value.split(".")[-1] == "duration"
            ]
    numbers = [
        float(v.value) for v in found
        if isinstance(v, ast.Constant) and isinstance(v.value, (int, float))
    ]
    return max(numbers, default=None)


def _grid_cells(call):
    """Cells of a ``SweepRunner(base, grid)`` call's literal grid."""
    grid = call.args[1] if len(call.args) >= 2 else None
    for keyword in call.keywords:
        if keyword.arg == "grid":
            grid = keyword.value
    cells = 1
    if isinstance(grid, ast.Dict):
        for value in grid.values:
            if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
                cells *= max(1, len(value.elts))
    return cells


def _range_bound(iterable):
    """N for a loop over a constant ``range(..., N)``, else 1."""
    if (
        isinstance(iterable, ast.Call)
        and isinstance(iterable.func, ast.Name)
        and iterable.func.id == "range"
        and iterable.args
    ):
        bound = iterable.args[-1 if len(iterable.args) < 3 else 1]
        if isinstance(bound, ast.Constant) and isinstance(bound.value, int):
            return max(1, bound.value)
    return 1


def _estimated_cells(node, multiplier=1):
    """Cells run under ``node``: each ``SweepRunner`` grid and single-cell
    call, times the constant ``range`` loops around it."""
    cells = 0
    if isinstance(node, ast.Call):
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name == "SweepRunner":
            cells += _grid_cells(node) * multiplier
        elif name in SINGLE_CELL_CALLS:
            cells += multiplier
    if isinstance(node, (ast.For, ast.AsyncFor)):
        multiplier *= _range_bound(node.iter)
    for child in ast.iter_child_nodes(node):
        cells += _estimated_cells(child, multiplier)
    return cells


def check_test_tiers(sources):
    """``tests.missing-slow-marker`` over every module under ``tests/``."""
    findings = []
    for rel, tree, _, _ in _modules(sources, TESTS):
        if _module_marked_slow(tree):
            continue
        # module default duration: module-level statements only (shared
        # BASE specs), never other tests' bodies.
        durations = [
            _max_duration(stmt) for stmt in tree.body
            if not isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            )
        ]
        module_duration = max(
            (d for d in durations if d is not None), default=None
        )

        def walk(body, class_slow):
            for node in body:
                if isinstance(node, ast.ClassDef):
                    walk(node.body, class_slow
                         or any(map(_is_slow_marker, node.decorator_list)))
                elif (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and node.name.startswith("test")
                    and not class_slow
                    and not any(map(_is_slow_marker, node.decorator_list))
                ):
                    cells = _estimated_cells(node)
                    duration = _max_duration(node)
                    if duration is None:
                        duration = module_duration
                    work = None if duration is None else cells * duration
                    if cells and (
                        cells >= SLOW_CELL_THRESHOLD
                        or (work is not None and work >= SLOW_WORK_THRESHOLD)
                    ):
                        findings.append(Finding(
                            rel, node.lineno, "tests.missing-slow-marker",
                            f"{node.name} runs ~{cells} cell(s) x "
                            f"{'?' if duration is None else duration}s "
                            "without @pytest.mark.slow",
                        ))

        walk(tree.body, False)
    return sorted(findings)


def test_slow_marker_guard():
    _assert_clean(check_test_tiers(_repo_sources()), TESTS_ALLOWLIST)


# ---------------------------------------------------- planted violations


def _planted(rel_path, text):
    """A one-module planted tree, as ``(rel_path, text)`` sources."""
    return [(rel_path, dedent(text))]


def _rules(findings):
    return [f.rule for f in findings]


class TestDeterminismGuard:
    def test_wall_clock_hit_through_aliases(self):
        findings = check_determinism(_planted("src/repro/sim/probe.py", """\
            import time as t
            from datetime import datetime

            def sample():
                return t.time()

            def stamp():
                return datetime.now()

            def simulated(sim):
                return sim.time()  # an attribute, not the time module
            """))
        assert _rules(findings) == ["determinism.wall-clock"] * 2
        assert [f.line for f in findings] == [5, 8]

    def test_wall_clock_checked_in_apps_layer(self):
        findings = check_determinism(_planted("src/repro/apps/pacer.py", """\
            import time

            def now():
                return time.time()
            """))
        assert _rules(findings) == ["determinism.wall-clock"]

    def test_global_rng_checked_in_baselines_layer(self):
        findings = check_determinism(_planted("src/repro/baselines/jitter.py", """\
            import numpy as np

            def backoff():
                return np.random.uniform(0.0, 1.0)

            def seeded(seed):
                return np.random.default_rng(seed).uniform(0.0, 1.0)
            """))
        assert _rules(findings) == ["determinism.global-rng"]
        assert findings[0].line == 4

    def test_global_rng_from_import_alias(self):
        findings = check_determinism(_planted("src/repro/core/jitter.py", """\
            from random import choice
            import random

            def pick(xs):
                return choice(xs)

            def draw():
                return random.random()

            def seeded():
                return random.Random(7).random()  # instance: fine
            """))
        assert _rules(findings) == ["determinism.global-rng"] * 2

    def test_unsorted_listdir_vs_sanitized(self):
        findings = check_determinism(_planted("src/repro/net/walk.py", """\
            import os

            def bad(d):
                return [n for n in os.listdir(d)]

            def good(d):
                return sorted(os.listdir(d))

            def counted(p):
                return sum(1 for _ in p.glob("*.json"))

            def raw(p):
                for entry in p.iterdir():
                    yield entry
            """))
        assert _rules(findings) == ["determinism.unsorted-listdir"] * 2
        assert [f.line for f in findings] == [4, 13]

    def test_set_iteration(self):
        findings = check_determinism(_planted("src/repro/tcp/order.py", """\
            def bad(xs):
                return [x for x in set(xs)]

            def worse(xs):
                return list(set(xs))

            def good(xs):
                return sorted(set(xs))
            """))
        assert _rules(findings) == ["determinism.set-iteration"] * 2


class TestFsioGuard:
    def test_raw_writes_flagged_outside_fsio(self):
        findings = check_fsio(_planted("src/repro/scenarios/leaky.py", """\
            import json

            def save(path, payload):
                path.write_text("boom")
                with open(path, "w") as fh:
                    json.dump(payload, fh, allow_nan=False)
            """))
        assert _rules(findings) == [
            "fsio.raw-write", "fsio.raw-write", "fsio.stream-dump",
        ]

    def test_blessed_module_passes_and_allowlist_excuses(self):
        findings = check_fsio(_planted("src/repro/scenarios/_fsio.py", """\
            def atomic(path, text):
                with path.open("w") as fh:
                    fh.write(text)
            """) + _planted("src/repro/scenarios/torn.py", """\
            def tear(path):
                with path.open(mode="w") as fh:
                    fh.write("ha")
            """))
        assert [(f.path, f.rule) for f in findings] == [
            ("src/repro/scenarios/torn.py", "fsio.raw-write"),
        ]
        allowlist = {("src/repro/scenarios/torn.py", "fsio.raw-write"): "torn"}
        assert _unexcused(findings, allowlist) == ([], [])

    def test_append_mode_is_not_a_content_write(self):
        assert check_fsio(_planted("src/repro/scenarios/clock.py", """\
            def touch(sentinel):
                with sentinel.open("a"):
                    pass
            """)) == []


class TestCacheGuard:
    def test_non_finite_in_registered_scenario(self):
        findings = check_cache(_planted("src/repro/experiments/figx.py", """\
            import math
            from repro.scenarios import register_scenario

            @register_scenario("figx_cell")
            def run(spec):
                return {"metric": float("nan"), "bound": math.inf}

            def helper():
                return float("inf")  # not a scenario function: fine
            """))
        assert _rules(findings) == ["cache.non-finite-literal"] * 2

    def test_lenient_json_dump(self):
        findings = check_cache(_planted("src/repro/apps/export.py", """\
            import json

            def bad(d):
                return json.dumps(d)

            def good(d):
                return json.dumps(d, allow_nan=False)
            """))
        assert _rules(findings) == ["cache.lenient-json-dump"]


class TestRegistryGuard:
    def test_executor_compared_against_unknown_name(self):
        findings = check_registry(_planted("src/repro/scenarios/executors.py", """\
            def wants_queue(executor):
                return executor == "bogus"

            def wants_serial(executor):
                return executor == "serial"
            """), scenarios=set(), executors={"serial"})
        assert _rules(findings) == ["registry.executor-name-drift"]
        assert "'bogus'" in findings[0].detail

    def test_runner_choices_drift_is_caught(self, monkeypatch):
        real = argparse.ArgumentParser.add_argument

        def narrowed(self, *args, **kwargs):
            if args[:1] == ("--executor",):
                kwargs["choices"] = ("serial",)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", narrowed)
        assert _runner_executor_choices() != list(EXECUTOR_NAMES)

    def test_unregistered_scenario_ref(self):
        findings = check_registry(_planted("src/repro/experiments/use.py", """\
            from repro.scenarios import ScenarioSpec, get_scenario

            def good():
                return ScenarioSpec(scenario="grid_cell")

            def bad():
                return ScenarioSpec(scenario="grid_cel")

            def looked_up():
                return get_scenario("grid_cells")
            """), scenarios={"grid_cell"}, executors=set())
        assert [(f.rule, f.line) for f in findings] == [
            ("registry.unregistered-scenario-ref", 7),
            ("registry.unregistered-scenario-ref", 10),
        ]
        assert "'grid_cel'" in findings[0].detail


class TestReachGuard:
    MODULE = ("src/repro/net/probe.py", dedent("""\
        __all__ = ["helper", "orphan"]

        def helper():
            return 1

        def orphan():
            return 2
        """))

    def _names(self, *callers):
        return [f.detail for f in check_reach([self.MODULE, *callers])]

    def test_unused_def_fails(self):
        findings = check_reach([self.MODULE])
        assert _rules(findings) == ["reach.unused-name"] * 2
        assert [(f.line, f.detail) for f in findings] == [(3, "helper"), (6, "orphan")]

    def test_use_only_from_examples_passes(self):
        assert self._names(("examples/demo.py", dedent("""\
            from repro.net import probe
            from repro.net.probe import helper as h

            h()
            probe.orphan()
            """))) == []

    def test_test_bench_test_and_import_only_uses_do_not_count(self):
        assert self._names(
            ("tests/test_probe.py", "from repro.net.probe import helper\nhelper()\n"),
            ("bench/tests/test_x.py", "from repro.net.probe import helper\nhelper()\n"),
            ("bench/run.py", "from repro.net.probe import helper, orphan\n"),
        ) == ["helper", "orphan"]

    def test_same_name_from_another_module_does_not_count(self):
        assert self._names(("src/repro/scenarios/disk.py", dedent("""\
            from pathlib import Path as helper
            from repro.net import orphan

            helper(".")
            orphan()
            """))) == ["helper"]

    def test_own_module_use_and_registered_scenario_count(self):
        assert check_reach(_planted("src/repro/scenarios/extra.py", """\
            from repro.scenarios.spec import register_scenario

            def _inner():
                return {}

            @register_scenario("extra_cell")
            def extra(spec):
                return _inner()
            """)) == []

    def test_stale_entry_fails(self):
        findings = check_reach([self.MODULE, ("bench/run.py", dedent("""\
            from repro.net.probe import helper

            helper()
            """))])
        live = {("src/repro/net/probe.py", "orphan"): "kept: a test oracle"}
        _assert_clean(findings, live, _by_name)
        stale = {**live, ("src/repro/net/probe.py", "helper"): "kept: was unused"}
        with pytest.raises(AssertionError, match="excuse nothing"):
            _assert_clean(findings, stale, _by_name)


class TestMemberReachGuard:
    MODULE = ("src/repro/sim/clock.py", dedent("""\
        class Clock:
            def __init__(self):
                self.t = 0.0

            def __repr__(self):
                return "<Clock>"

            def tick(self):
                self.t += 1.0

            @property
            def now(self):
                return self.t

            def start(self):
                self.tick()

            def orphan(self):
                return None

            restart = start
        """))

    def _members(self, *callers):
        return [f.detail for f in check_member_reach([self.MODULE, *callers])]

    def test_unreached_method_and_property_fail(self):
        findings = check_member_reach([self.MODULE])
        assert _rules(findings) == ["reach.unused-member"] * 2
        assert [(f.line, f.detail) for f in findings] == [
            (12, "Clock.now"), (18, "Clock.orphan"),
        ]

    def test_attribute_load_from_a_caller_reaches(self):
        assert self._members(("examples/demo.py", dedent("""\
            from repro.sim.clock import Clock

            print(Clock().now)
            """))) == ["Clock.orphan"]

    def test_bare_name_in_the_class_body_reaches(self):
        assert "Clock.start" not in self._members()
        unaliased = (self.MODULE[0], self.MODULE[1].replace("restart = start", ""))
        findings = check_member_reach([unaliased])
        assert "Clock.start" in [f.detail for f in findings]

    def test_string_literal_reaches(self):
        assert self._members(("bench/layers.py", dedent("""\
            def probe(clock):
                return getattr(clock, "now")
            """))) == ["Clock.orphan"]

    def test_loads_in_tests_and_stores_do_not_reach(self):
        assert self._members(
            ("tests/test_clock.py", "def test_now(c):\n    assert c.orphan()\n"),
            ("bench/tests/test_clock.py", "def test_now(c):\n    c.now\n"),
            ("examples/set.py", "def reset(c):\n    c.now = 0.0\n"),
        ) == ["Clock.now", "Clock.orphan"]

    def test_stale_entry_fails(self):
        findings = check_member_reach([self.MODULE])
        live = {
            ("src/repro/sim/clock.py", "Clock.now"): "kept: a fuzz reference",
            ("src/repro/sim/clock.py", "Clock.orphan"): "kept: a claim statistic",
        }
        _assert_clean(findings, live, _by_name)
        stale = {**live, ("src/repro/sim/clock.py", "Clock.tick"): "kept: unused"}
        with pytest.raises(AssertionError, match="excuse nothing"):
            _assert_clean(findings, stale, _by_name)


class TestOptionReachGuard:
    MODULE = ("src/repro/experiments/fig99_probe.py", dedent("""\
        def run(duration=1.0, tau=0.5, seed=0, **sweep):
            return helper(duration)

        def helper(x, scale=2.0, *, offset=0.0):
            return x * scale + offset
        """))
    FLOWS = ("src/repro/net/probe.py", dedent("""\
        from dataclasses import dataclass

        @dataclass
        class DumbbellConfig:
            delay: float = 0.05
            jitter: float = 0.001

        class Sender:
            def __init__(self, sim, size=1000, cwnd=2.0):
                self.size = size

            def series(self, category=None, t_max=None):
                return []

        class Sack(Sender):
            pass

        class Flow:
            def __init__(self, sim, on_data=None, **sender_kwargs):
                self.sender = Sack(sim, **sender_kwargs)

        class Bed:
            def _flow(self, cls, flow_id, kwargs):
                return cls(self, on_data=print, **kwargs)

            def flow(self, flow_id, **kwargs):
                return self._flow(Flow, flow_id, kwargs)
        """))

    def _options(self, *callers, module=MODULE):
        return [f.detail for f in check_option_reach([module, *callers])]

    def test_option_no_call_passes_fails_and_seed_is_exempt(self):
        findings = check_option_reach([self.MODULE])
        assert _rules(findings) == ["reach.unused-option"] * 4
        assert [(f.line, f.detail) for f in findings] == [
            (1, "run.duration"), (1, "run.tau"),
            (4, "helper.offset"), (4, "helper.scale"),
        ]

    def test_methods_constructors_and_config_fields_are_covered(self):
        # ``Bed._flow`` passes ``on_data`` through its ``cls`` parameter.
        assert self._options(module=self.FLOWS) == [
            "DumbbellConfig.delay", "DumbbellConfig.jitter", "Sender.cwnd",
            "Sender.size", "Sender.series.category", "Sender.series.t_max",
        ]

    def test_keyword_position_alias_and_forwarding_pass(self):
        assert self._options(
            ("benchmarks/test_probe.py", dedent("""\
                from repro.experiments import fig99_probe as probe
                from repro.experiments.fig99_probe import helper as h

                def test_run(once, benchmark):
                    once(benchmark, probe.run, tau=0.2)
                    h(1.0, 3.0)
                """)),
            ("examples/probe.py", dedent("""\
                import functools

                from repro.experiments import fig99_probe

                short = functools.partial(fig99_probe.run, 2.0)
                """)),
        ) == ["helper.offset"]

    def test_mapping_unpack_and_table_row_pass(self):
        assert self._options(("bench/probe.py", dedent("""\
            from repro.experiments import fig99_probe as probe

            ROWS = [(probe.helper, {"offset": 1.0}, 1)]

            def go():
                kwargs = dict(duration=2.0, tau=0.1)
                probe.run(**kwargs)
                probe.helper(1.0, **{"scale": 1.0})
            """))) == []

    def test_kwargs_wrappers_forward_to_what_they_wrap(self):
        assert self._options(("examples/flows.py", dedent("""\
            from repro.net.probe import Bed, DumbbellConfig

            config = DumbbellConfig(0.01, jitter=0.0)
            Bed().flow("f", cwnd=4.0, size=500)
            """)), module=self.FLOWS) == [
            "Sender.series.category", "Sender.series.t_max",
        ]

    def test_method_calls_match_by_name(self):
        assert self._options(("bench/layers.py", dedent("""\
            def probe(tracer):
                return tracer.series(category="queue")
            """)), module=self.FLOWS) == [
            "DumbbellConfig.delay", "DumbbellConfig.jitter", "Sender.cwnd",
            "Sender.size", "Sender.series.t_max",
        ]

    def test_unbound_callee_reaches_the_classes_its_module_holds(self):
        found = self._options(("examples/compare.py", dedent("""\
            from repro.net.probe import Sack

            def run(sender_cls):
                return sender_cls(None, cwnd=1.0)

            for cls in (Sack,):
                run(cls)
            """)), module=self.FLOWS)
        assert "Sender.cwnd" not in found and "Sender.size" in found

    def test_tests_and_same_name_in_another_module_do_not_pass(self):
        assert self._options(
            ("tests/test_probe.py", dedent("""\
                from repro.experiments import fig99_probe as probe

                def test_run():
                    probe.run(duration=2.0, tau=0.1)
                """)),
            ("examples/demo.py", dedent("""\
                from repro.experiments.fig02_loss_interval import run

                def helper(x, scale=1.0):
                    return x

                run(duration=3.0, tau=0.1)
                helper(1.0, scale=2.0, offset=1.0)
                """)),
        ) == ["run.duration", "run.tau", "helper.offset", "helper.scale"]

    def test_stale_entry_fails(self):
        findings = check_option_reach([self.MODULE])
        path = self.MODULE[0]
        live = {
            (path, name): "kept: a test-only option"
            for name in ("run.duration", "run.tau", "helper.offset", "helper.scale")
        }
        _assert_clean(findings, live, _by_name)
        stale = {**live, (path, "run.seed"): "kept: exempt anyway"}
        with pytest.raises(AssertionError, match="excuse nothing"):
            _assert_clean(findings, stale, _by_name)


class TestUnusedImportGuard:
    MODULE = ("src/repro/net/probe.py", dedent("""\
        from __future__ import annotations

        import math
        import numpy as np
        from typing import Dict, List, Optional
        from repro.net.packet import Packet

        def first(xs: List[int]) -> "Optional[Packet]":
            return None if not xs else math.floor(xs[0])

        __all__ = ["first", "np"]
        """))

    def test_unread_imports_fail_and_all_is_not_a_read(self):
        findings = check_unused_imports([self.MODULE])
        assert _rules(findings) == ["imports.unused"] * 2
        assert [(f.line, f.detail) for f in findings] == [(4, "np"), (5, "Dict")]

    def test_package_init_and_imported_from_names_are_re_exports(self):
        init = ("src/repro/net/__init__.py", "from repro.net.probe import first\n")
        user = ("src/repro/net/user.py", "from repro.net.probe import Dict\n")
        findings = check_unused_imports([self.MODULE, init, user])
        assert [f.detail for f in findings] == ["np", "Dict"]
        assert findings[1].path == "src/repro/net/user.py"

    def test_outside_src_is_not_checked(self):
        assert check_unused_imports([("bench/x.py", "import os\n")]) == []


class TestSlowMarkerGuard:
    HEAVY = dedent("""\
        import pytest
        from repro.scenarios import ScenarioSpec, SweepRunner

        def test_heavy():
            base = ScenarioSpec(scenario="x", duration=120.0)
            SweepRunner(base, {"a": [1, 2, 3, 4, 5], "b": [1, 2]}).run()
        """)

    def test_unmarked_heavy_test_flagged(self):
        findings = check_test_tiers([("tests/test_heavy.py", self.HEAVY)])
        assert _rules(findings) == ["tests.missing-slow-marker"]
        assert "10 cell(s)" in findings[0].detail

    def test_marked_variants_pass(self):
        marked = self.HEAVY.replace(
            "def test_heavy():", "@pytest.mark.slow\ndef test_heavy():"
        )
        module_marked = "import pytest\npytestmark = pytest.mark.slow\n" + self.HEAVY
        assert check_test_tiers([
            ("tests/test_marked.py", marked),
            ("tests/test_module_marked.py", module_marked),
        ]) == []

    def test_small_grid_with_small_duration_passes(self):
        assert check_test_tiers(_planted("tests/test_light.py", """\
            from repro.scenarios import ScenarioSpec, SweepRunner

            def test_light():
                base = ScenarioSpec(scenario="x", duration=1.0)
                SweepRunner(base, {"a": [1, 2, 3, 4]}).run()
            """)) == []

    def test_huge_grid_flagged_even_without_duration(self):
        findings = check_test_tiers(_planted("tests/test_wide.py", """\
            from repro.scenarios import SweepRunner

            def test_wide(base):
                SweepRunner(base, {
                    "a": [1, 2, 3, 4, 5, 6, 7, 8],
                    "b": [1, 2, 3, 4, 5, 6, 7, 8],
                    "c": [1, 2, 3, 4],
                }).run()
            """))
        assert _rules(findings) == ["tests.missing-slow-marker"]

    def test_range_loop_multiplies_single_cells(self):
        findings = check_test_tiers(_planted("tests/test_loop.py", """\
            from repro.scenarios import ScenarioSpec, run_scenario

            def test_loop():
                for seed in range(20):
                    run_scenario(ScenarioSpec("x", seed=seed, duration=30.0))
            """))
        assert "~20 cell(s) x 30.0s" in findings[0].detail


class TestAllowlist:
    FINDING = Finding("src/repro/sim/probe.py", 4, "determinism.wall-clock", "")

    def test_entry_naming_no_finding_is_stale(self):
        allowlist = {
            ("src/repro/nowhere.py", "determinism.wall-clock"): "why",
            ("src/repro/sim/probe.py", "determinism.global-rng"): "why",
        }
        assert _unexcused([self.FINDING], allowlist) == (
            [self.FINDING], sorted(allowlist),
        )

    def test_live_entry_excuses_and_is_not_stale(self):
        allowlist = {("src/repro/sim/probe.py", "determinism.wall-clock"): "why"}
        assert _unexcused([self.FINDING], allowlist) == ([], [])
