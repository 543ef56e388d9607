"""Scalar/vector twin-congruence rules (``twin.*``).

PR 6's vector kernel promises *bit-identical* results to the scalar
reference: same float64 ops, same per-element order.  That contract was
guarded only by runtime property fuzz -- strong for the pairs it covers,
silent for the pair someone forgets to fuzz.  This family makes the
contract declarative and machine-checked:

* A vectorized function declares its scalar reference either with an
  annotation on (or directly above) its ``def`` line::

      # tfrc-audit: twin-of repro.net.redmath.red_drop_probability
      def red_drop_probability_vec(params, avg):

  or through a module-level ``TWINS`` table (for names that want a
  docstring'd registry)::

      TWINS = {
          "run_cells_vector": ("repro.sim.vector_kernel.run_cell_scalar",
                               "runtime"),
      }

  The default mode is ``trace``: both bodies are lowered by
  :mod:`repro.analysis.audit.normalize` to one canonical arithmetic
  trace and any structural difference is a ``twin.op-divergence``.
  Pairs whose congruence is beyond static proof (masked bisection
  loops, full simulation kernels) register in ``runtime`` mode --
  ``# tfrc-audit: twin-of <qualname> [runtime] -- <where it is fuzzed>``
  -- which skips the trace proof but keeps every body lint below.

* Standalone lints run on every registered vector body and on any
  ``*_vec`` / ``*_vector`` function in ``src``:

  - ``twin.nonassoc-reduction``: ``np.sum`` / ``np.dot`` / ``.sum()``
    style pairwise reductions.  numpy is free to reassociate them, so
    they cannot be bit-identical to a scalar accumulation loop; write an
    explicit left fold over columns instead.  (Builtin ``sum()`` *is* a
    left fold and is not flagged.)
  - ``twin.dtype-drift``: float32/float16 dtypes or ``astype``
    narrowing inside a kernel that promises float64.
  - ``twin.forbidden-op``: operators and calls outside the blessed set
    (``+ - * / sqrt`` plus ``min``/``max``/``where`` selection) --
    ``**``, ``np.hypot``, ``np.exp`` and friends evaluate differently
    from their composed scalar spellings.
  - ``twin.unregistered-twin``: a vector-named function with no
    declared scalar twin (the lockstep contract must be opt-out by
    declaration, never by omission).

The analyzer is itself cross-validated: ``tests/test_twin_congruence.py``
plants an operand reorder in a copy of the RED twin (must be flagged)
and fuzzes every live ``trace``-mode pair for bit equality (the static
proof must not be vacuous).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.audit.engine import (
    SRC_PREFIX,
    Rule,
    SourceFile,
    iter_source_paths,
    project_checker,
)
from repro.analysis.audit.normalize import (
    first_divergence,
    normalize_function,
)
from repro.analysis.audit.records import AuditRecord

RULE_OP_DIVERGENCE = Rule(
    id="twin.op-divergence",
    summary="scalar and vector twin bodies lower to different "
    "arithmetic traces",
    hint="make the vector body evaluate the same float64 ops in the "
    "same per-element order as its scalar twin, or register the pair "
    "as [runtime] with a pointer to its fuzz coverage",
)
RULE_NONASSOC = Rule(
    id="twin.nonassoc-reduction",
    summary="pairwise reduction (np.sum/np.dot/.sum()) in a vector "
    "twin body",
    hint="numpy reductions may reassociate; accumulate with an "
    "explicit left fold over columns to match the scalar loop order",
)
RULE_DTYPE = Rule(
    id="twin.dtype-drift",
    summary="sub-float64 dtype in a vector twin body",
    hint="twin kernels are a float64 contract; drop the float32/"
    "float16 literal or astype narrowing",
)
RULE_FORBIDDEN = Rule(
    id="twin.forbidden-op",
    summary="operation outside the blessed twin op set "
    "(+ - * / sqrt, min/max/where)",
    hint="fused or transcendental ops (np.hypot, np.exp, **) round "
    "differently from their composed scalar spellings; compose from "
    "the blessed set on both sides",
)
RULE_UNREGISTERED = Rule(
    id="twin.unregistered-twin",
    summary="vector-named function with no declared scalar twin",
    hint="add '# tfrc-audit: twin-of <scalar qualname>' above the def "
    "(or a TWINS table entry); use [runtime] mode when the pair is "
    "fuzz-verified rather than trace-provable",
)

_TWIN_RE = re.compile(
    r"#\s*tfrc-audit:\s*twin-of\s+(?P<scalar>[\w.]+)"
    r"(?:\s*\[(?P<mode>\w+)\])?"
    r"(?:\s*--\s*(?P<reason>.*))?"
)

_MODES = ("trace", "runtime")

#: reductions numpy may reassociate (never bit-stable vs a scalar loop).
_NONASSOC_CALLS = frozenset(
    {
        "numpy.sum", "numpy.nansum", "numpy.dot", "numpy.vdot",
        "numpy.inner", "numpy.matmul", "numpy.einsum", "numpy.prod",
        "numpy.mean", "numpy.average", "numpy.cumsum", "numpy.add.reduce",
        "math.fsum",
    }
)
_NONASSOC_METHODS = frozenset({"sum", "dot", "mean", "prod", "cumsum"})

#: fused / transcendental calls outside the blessed twin op set.
_FORBIDDEN_CALLS = frozenset(
    {
        "numpy.hypot", "numpy.fma", "numpy.exp", "numpy.exp2",
        "numpy.expm1", "numpy.log", "numpy.log2", "numpy.log10",
        "numpy.log1p", "numpy.power", "numpy.float_power", "numpy.square",
        "numpy.reciprocal", "numpy.cbrt", "numpy.sin", "numpy.cos",
        "numpy.tan", "math.exp", "math.expm1", "math.log", "math.log1p",
        "math.log2", "math.log10", "math.pow", "math.hypot",
    }
)
_FORBIDDEN_BINOPS = {
    ast.Pow: "**", ast.FloorDiv: "//", ast.Mod: "%", ast.MatMult: "@",
}

_NARROW_DTYPES = frozenset(
    {"numpy.float32", "numpy.float16", "numpy.half", "numpy.single"}
)
_NARROW_DTYPE_STRINGS = frozenset({"float32", "float16", "half", "single"})

#: name suffixes that mark a function as a vector kernel; such a function
#: must declare its scalar twin (``twin.unregistered-twin``).
TWIN_SUFFIXES = ("_vec", "_vector")


@dataclass(frozen=True)
class TwinPair:
    """One declared vector->scalar twin registration."""

    source: SourceFile
    vector_qual: str  # e.g. "_WaliLanes._fold_average"
    vector_node: ast.FunctionDef
    line: int  # the declaration site (annotation or def line)
    scalar: str  # dotted, e.g. "repro.net.redmath.red_drop_probability"
    mode: str  # "trace" | "runtime"

    @property
    def vector_dotted(self) -> str:
        """Importable dotted path of the vector function."""
        return f"{module_dotted(self.source.rel_path)}.{self.vector_qual}"


def module_dotted(rel_path: str) -> str:
    """``src/repro/net/redmath.py`` -> ``repro.net.redmath``."""
    parts = rel_path.split("/")
    if parts[0] == "src":
        parts = parts[1:]
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _function_table(source: SourceFile) -> Dict[str, ast.FunctionDef]:
    """Qualified name -> def node, for every function in the module."""
    table: Dict[str, ast.FunctionDef] = {}

    def visit(body: Sequence[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                table[prefix + node.name] = node  # type: ignore[assignment]
                visit(node.body, prefix + node.name + ".")
            elif isinstance(node, ast.ClassDef):
                visit(node.body, prefix + node.name + ".")

    visit(source.tree.body, "")
    return table


def _anchor_lines(node: ast.FunctionDef) -> Tuple[int, ...]:
    """Lines where a twin-of annotation attaches to this def."""
    start = min(
        [deco.lineno for deco in node.decorator_list] + [node.lineno]
    )
    return tuple(sorted({start - 1, start, node.lineno}))


def _comments(text: str) -> Iterator[Tuple[int, str]]:
    """(line, comment) for every comment token in ``text``."""
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return  # the file already parsed; treat a tokenizer gap as no comments


def collect_twins(
    src: Sequence[SourceFile],
) -> Tuple[List[TwinPair], List[AuditRecord]]:
    """All declared twin pairs, plus findings for malformed declarations."""
    pairs: List[TwinPair] = []
    problems: List[AuditRecord] = []

    def problem(source: SourceFile, line: int, detail: str) -> None:
        problems.append(
            AuditRecord(
                rule=RULE_UNREGISTERED.id,
                path=source.rel_path,
                line=line,
                severity=RULE_UNREGISTERED.severity,
                detail=detail,
                hint=RULE_UNREGISTERED.hint,
            )
        )

    for source in src:
        functions = _function_table(source)
        anchors: Dict[int, Tuple[str, ast.FunctionDef]] = {}
        for qual, node in functions.items():
            for line in _anchor_lines(node):
                anchors.setdefault(line, (qual, node))

        # ---------------------------------------------- inline annotations
        # Scanned as real comment tokens (not raw lines) so that
        # annotation syntax quoted in docstrings is not a declaration.
        for lineno, comment in _comments(source.text):
            match = _TWIN_RE.search(comment)
            if not match:
                continue
            mode = match.group("mode") or "trace"
            if mode not in _MODES:
                problem(
                    source, lineno,
                    f"twin-of mode [{mode}] is not one of {_MODES}",
                )
                continue
            if mode == "runtime" and not (match.group("reason") or "").strip():
                problem(
                    source, lineno,
                    "[runtime] twin registration needs a '-- reason' "
                    "pointing at its fuzz coverage",
                )
                continue
            anchored = anchors.get(lineno)
            if anchored is None:
                problem(
                    source, lineno,
                    "dangling twin-of annotation: not attached to any "
                    "function definition",
                )
                continue
            qual, node = anchored
            pairs.append(
                TwinPair(
                    source=source,
                    vector_qual=qual,
                    vector_node=node,
                    line=lineno,
                    scalar=match.group("scalar"),
                    mode=mode,
                )
            )

        # -------------------------------------------------- TWINS tables
        for stmt in source.tree.body:
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "TWINS"
                and isinstance(stmt.value, ast.Dict)
            ):
                continue
            for key, value in zip(stmt.value.keys, stmt.value.values):
                if not (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                ):
                    problem(source, stmt.lineno,
                            "TWINS table key is not a string literal")
                    continue
                scalar: Optional[str] = None
                mode = "trace"
                if isinstance(value, ast.Constant) and isinstance(
                    value.value, str
                ):
                    scalar = value.value
                elif (
                    isinstance(value, (ast.Tuple, ast.List))
                    and len(value.elts) == 2
                    and all(
                        isinstance(e, ast.Constant)
                        and isinstance(e.value, str)
                        for e in value.elts
                    )
                ):
                    scalar = value.elts[0].value  # type: ignore[union-attr]
                    mode = value.elts[1].value  # type: ignore[union-attr]
                if scalar is None or mode not in _MODES:
                    problem(
                        source, value.lineno if value else stmt.lineno,
                        f"TWINS entry for {key.value!r} must be "
                        "'<scalar qualname>' or ('<scalar qualname>', "
                        f"{'|'.join(_MODES)!r})".replace("'|'", "' | '"),
                    )
                    continue
                node = functions.get(key.value)
                if node is None:
                    problem(
                        source, key.lineno,
                        f"TWINS key {key.value!r} names no function in "
                        "this module",
                    )
                    continue
                pairs.append(
                    TwinPair(
                        source=source,
                        vector_qual=key.value,
                        vector_node=node,
                        line=node.lineno,
                        scalar=scalar,
                        mode=mode,
                    )
                )

    return pairs, problems


def collect_repo_twins(
    repo_root: "str | Path",
) -> Tuple[List[TwinPair], List[AuditRecord]]:
    """Parse a repo tree and collect its twin pairs (for the fuzz tier)."""
    root = Path(repo_root).resolve()
    src: List[SourceFile] = []
    for path in iter_source_paths(root):
        rel = path.relative_to(root).as_posix()
        if not rel.startswith(SRC_PREFIX):
            continue
        src.append(SourceFile(rel, path.read_text(encoding="utf-8")))
    return collect_twins(src)


def _resolve_scalar(
    dotted: str, by_path: Dict[str, SourceFile]
) -> Tuple[Optional[SourceFile], Optional[ast.FunctionDef]]:
    """Find the def node for a dotted scalar qualname, if it is in src."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        rel = "src/" + "/".join(parts[:split]) + ".py"
        source = by_path.get(rel)
        if source is None:
            continue
        qual = ".".join(parts[split:])
        return source, _function_table(source).get(qual)
    return None, None


def _record(
    rule: Rule, source: SourceFile, line: int, detail: str
) -> AuditRecord:
    return AuditRecord(
        rule=rule.id,
        path=source.rel_path,
        line=line,
        severity=rule.severity,
        detail=detail,
        hint=rule.hint,
    )


# ------------------------------------------------------------------- lints


def _lint_vector_body(
    source: SourceFile, func: ast.FunctionDef
) -> Iterator[AuditRecord]:
    """Blessed-op hygiene lints over one vector twin body."""
    for node in ast.walk(func):
        if isinstance(node, ast.BinOp):
            symbol = _FORBIDDEN_BINOPS.get(type(node.op))
            if symbol is not None:
                yield _record(
                    RULE_FORBIDDEN, source, node.lineno,
                    f"operator {symbol!r} in twin body {func.name!r}",
                )
        elif isinstance(node, ast.Call):
            qual = source.call_qualname(node)
            if qual in _NONASSOC_CALLS:
                yield _record(
                    RULE_NONASSOC, source, node.lineno,
                    f"{qual}() in twin body {func.name!r}",
                )
            elif qual in _FORBIDDEN_CALLS:
                yield _record(
                    RULE_FORBIDDEN, source, node.lineno,
                    f"{qual}() in twin body {func.name!r}",
                )
            elif (
                qual is None
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _NONASSOC_METHODS
            ):
                yield _record(
                    RULE_NONASSOC, source, node.lineno,
                    f".{node.func.attr}() method reduction in twin "
                    f"body {func.name!r}",
                )
        elif isinstance(node, (ast.Name, ast.Attribute)):
            qual = source.qualname(node)
            if qual in _NARROW_DTYPES:
                yield _record(
                    RULE_DTYPE, source, node.lineno,
                    f"{qual} in twin body {func.name!r}",
                )
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value in _NARROW_DTYPE_STRINGS
        ):
            yield _record(
                RULE_DTYPE, source, node.lineno,
                f"dtype string {node.value!r} in twin body {func.name!r}",
            )


# --------------------------------------------------------------- the checker


@project_checker(
    RULE_OP_DIVERGENCE,
    RULE_NONASSOC,
    RULE_DTYPE,
    RULE_FORBIDDEN,
    RULE_UNREGISTERED,
)
def check_twin_congruence(
    corpus: Sequence[SourceFile],
) -> Iterator[AuditRecord]:
    src = [s for s in corpus if s.rel_path.startswith(SRC_PREFIX)]
    by_path = {s.rel_path: s for s in src}
    pairs, problems = collect_twins(src)
    yield from problems

    registered = {(pair.source.rel_path, pair.vector_qual) for pair in pairs}

    # Calls to a twin canonicalize to the scalar's bare name on both
    # sides, so a vector body calling a sibling vector twin still
    # compares equal to the scalar body calling the scalar sibling.
    call_map: Dict[str, str] = {}
    for pair in pairs:
        bare_scalar = pair.scalar.rsplit(".", 1)[-1]
        call_map[pair.scalar] = bare_scalar
        call_map[pair.vector_node.name] = bare_scalar
        call_map[pair.vector_dotted] = bare_scalar

    linted: set = set()
    for pair in pairs:
        key = (pair.source.rel_path, pair.vector_qual)
        if key not in linted:
            linted.add(key)
            yield from _lint_vector_body(pair.source, pair.vector_node)

    for source in src:
        for qual, node in sorted(_function_table(source).items()):
            if not node.name.endswith(TWIN_SUFFIXES):
                continue
            if (source.rel_path, qual) in registered:
                continue
            yield _record(
                RULE_UNREGISTERED, source, node.lineno,
                f"{qual} looks like a vector kernel but declares no "
                "scalar twin",
            )
            if (source.rel_path, qual) not in linted:
                linted.add((source.rel_path, qual))
                yield from _lint_vector_body(source, node)

    # ------------------------------------------------------ trace proofs
    for pair in pairs:
        if pair.mode != "trace":
            continue
        scalar_source, scalar_node = _resolve_scalar(pair.scalar, by_path)
        if scalar_source is None or scalar_node is None:
            yield _record(
                RULE_UNREGISTERED, pair.source, pair.line,
                f"declared scalar twin {pair.scalar!r} was not found "
                "in the source tree",
            )
            continue
        vector_trace = normalize_function(
            pair.source, pair.vector_node, call_map
        )
        scalar_trace = normalize_function(scalar_source, scalar_node, call_map)
        diverged = False
        for side, trace in (("scalar", scalar_trace), ("vector", vector_trace)):
            if trace.error is not None:
                diverged = True
                yield _record(
                    RULE_OP_DIVERGENCE, pair.source, pair.vector_node.lineno,
                    f"{side} twin of {pair.vector_qual} cannot be "
                    f"trace-lowered: {trace.error}",
                )
            for failure in trace.guard_failures:
                diverged = True
                yield _record(
                    RULE_OP_DIVERGENCE, pair.source, pair.vector_node.lineno,
                    f"{side} twin of {pair.vector_qual}: {failure}",
                )
        if diverged:
            continue
        found = first_divergence(scalar_trace.expr, vector_trace.expr)
        if found is not None:
            where, scalar_render, vector_render = found
            yield _record(
                RULE_OP_DIVERGENCE, pair.source, pair.vector_node.lineno,
                f"normalized traces of {pair.vector_qual} and "
                f"{pair.scalar} diverge at {where}: scalar "
                f"{scalar_render} != vector {vector_render}",
            )
