"""The ``tfrc-audit`` analysis engine: parsing, suppression, dispatch.

A :class:`SourceFile` wraps one parsed module: its AST, a child->parent
map (so checkers can look outward from a matched node), resolved import
aliases (``import time as t`` and ``from time import time`` both resolve
to the canonical dotted name ``time.time``), and the inline-suppression
table.  Checkers register themselves with :func:`file_checker` (run once
per file) or :func:`project_checker` (run once over the whole corpus, for
cross-file invariants like registry coherence); :func:`run_audit` walks
``src/repro`` and ``tests``, runs every registered checker, and filters
the raw findings through suppressions and the allowlist.

Suppression syntax (same line as the finding or the line above)::

    x = time.time()  # tfrc-audit: ignore[determinism.wall-clock] -- why

The bracket takes a comma-separated list of rule ids; a bare family name
(``ignore[fsio]``) suppresses every rule in that family.  The allowlist
(:class:`AllowEntry`) is the coarse-grained twin: whole layers where an
invariant family legitimately does not apply (the worker/heartbeat/fault
layers *are* wall-clock code), each entry carrying the reason why.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.audit.records import (
    SEVERITY_ERROR,
    AuditRecord,
)

#: the trees the audit parses, relative to the repo root.
SRC_PREFIX = "src/repro"
TESTS_PREFIX = "tests"

# --------------------------------------------------------------------- rules


@dataclass(frozen=True)
class Rule:
    """One invariant the auditor enforces (a rule id plus its contract)."""

    id: str
    summary: str
    hint: str = ""
    severity: str = SEVERITY_ERROR

    @property
    def family(self) -> str:
        return self.id.split(".", 1)[0]


# ----------------------------------------------------------------- allowlist


@dataclass(frozen=True)
class AllowEntry:
    """One allowlisted (path prefix, rule family) pair, with its reason.

    ``rules`` entries may be full rule ids or bare families; ``reason``
    is mandatory -- an allowlist hole nobody can explain is a finding in
    itself.
    """

    path_prefix: str
    rules: Tuple[str, ...]
    reason: str

    def __post_init__(self) -> None:
        if not self.reason.strip():
            raise ValueError(
                f"allowlist entry for {self.path_prefix!r} needs a reason"
            )

    def covers(self, rel_path: str, rule_id: str) -> bool:
        if not rel_path.startswith(self.path_prefix):
            return False
        return any(_rule_matches(token, rule_id) for token in self.rules)


def _rule_matches(token: str, rule_id: str) -> bool:
    """Does suppression/allowlist ``token`` cover ``rule_id``?

    A token matches its exact rule id or, when it names a bare family
    (no dot), every rule in that family.
    """
    token = token.strip()
    if not token:
        return False
    return rule_id == token or ("." not in token and rule_id.startswith(token + "."))


#: Layers where the determinism family legitimately does not apply.  The
#: simulation core must be a pure function of the spec, but the fabric
#: *around* it schedules real processes against real clocks.  Layers the
#: checker never visits at all (anything outside
#: ``rules_determinism.DETERMINISM_PREFIXES`` -- apps/, baselines/)
#: need no entry here: an entry that suppresses nothing is itself
#: reported in ``AuditReport.stale_allowlist``, which the tier-1 test
#: ``test_repo_audits_clean`` requires to be empty.
DEFAULT_ALLOWLIST: Tuple[AllowEntry, ...] = (
    AllowEntry(
        "src/repro/scenarios/filequeue.py",
        ("determinism",),
        "queue protocol: lease clocks (fs_now's fallback), file-name nonces "
        "and unordered directory counts are wall-clock / filesystem state "
        "by design; cell results never depend on them",
    ),
    AllowEntry(
        "src/repro/scenarios/faults.py",
        ("determinism",),
        "fault layer: skewed lease stamps and rename delays manipulate "
        "real time on purpose; fault *decisions* stay pure sha256",
    ),
)


# ---------------------------------------------------------------- source files

_SUPPRESS_RE = re.compile(r"#\s*tfrc-audit:\s*ignore\[([^\]]*)\]")


class SourceFile:
    """One parsed module plus the derived tables checkers need."""

    def __init__(self, rel_path: str, text: str) -> None:
        self.rel_path = rel_path
        self.text = text
        self.tree = ast.parse(text, filename=rel_path)
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        self._aliases = self._collect_aliases()
        self._suppressions = self._collect_suppressions(text)

    # ------------------------------------------------------------ alias maps

    def _collect_aliases(self) -> Dict[str, str]:
        aliases: Dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else local
                    aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level or not node.module:
                    continue  # relative imports never hide stdlib modules
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    aliases[local] = f"{node.module}.{alias.name}"
        # `from datetime import datetime` canonicalizes to datetime.datetime
        return aliases

    def qualname(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name for a Name/Attribute chain, or None.

        Resolution is rooted in the module's imports: a bare local
        variable (or an attribute on one) resolves to None, so checkers
        matching ``time.time`` never fire on ``self.time`` or on an
        instance that merely shares a method name.
        """
        if isinstance(node, ast.Name):
            return self._aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.qualname(node.value)
            return f"{base}.{node.attr}" if base else None
        return None

    def call_qualname(self, call: ast.Call) -> Optional[str]:
        return self.qualname(call.func)

    # ---------------------------------------------------------- suppressions

    @staticmethod
    def _collect_suppressions(text: str) -> Dict[int, Set[str]]:
        table: Dict[int, Set[str]] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                tokens = {
                    token.strip()
                    for token in match.group(1).split(",")
                    if token.strip()
                }
                table[lineno] = tokens
        return table

    def suppressed(self, line: int, rule_id: str) -> bool:
        """Is ``rule_id`` suppressed at ``line`` (same line or line above)?"""
        for candidate in (line, line - 1):
            for token in self._suppressions.get(candidate, ()):
                if _rule_matches(token, rule_id):
                    return True
        return False

    # -------------------------------------------------------------- helpers

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)

    def enclosing(
        self, node: ast.AST, kinds: Tuple[type, ...]
    ) -> Optional[ast.AST]:
        """The nearest enclosing ancestor of one of ``kinds``, or None."""
        current = self.parents.get(node)
        while current is not None:
            if isinstance(current, kinds):
                return current
            current = self.parents.get(current)
        return None


# ------------------------------------------------------------------ registry

FileChecker = Callable[[SourceFile], Iterable[AuditRecord]]
ProjectChecker = Callable[[Sequence[SourceFile]], Iterable[AuditRecord]]

_FILE_CHECKERS: List[Tuple[FileChecker, Tuple[Rule, ...]]] = []
_PROJECT_CHECKERS: List[Tuple[ProjectChecker, Tuple[Rule, ...]]] = []


def file_checker(*rules: Rule) -> Callable[[FileChecker], FileChecker]:
    """Register a per-file checker enforcing ``rules``."""

    def register(fn: FileChecker) -> FileChecker:
        _FILE_CHECKERS.append((fn, rules))
        return fn

    return register


def project_checker(*rules: Rule) -> Callable[[ProjectChecker], ProjectChecker]:
    """Register a whole-corpus checker (cross-file invariants)."""

    def register(fn: ProjectChecker) -> ProjectChecker:
        _PROJECT_CHECKERS.append((fn, rules))
        return fn

    return register


def all_rules() -> List[Rule]:
    """Every registered rule, sorted by id."""
    load_builtin_checkers()
    rules: Dict[str, Rule] = {}
    for _, bundle in _FILE_CHECKERS + _PROJECT_CHECKERS:
        for rule in bundle:
            rules[rule.id] = rule
    return [rules[key] for key in sorted(rules)]


_BUILTINS_LOADED = False


def load_builtin_checkers() -> None:
    """Import the built-in rule modules (registering their checkers)."""
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    from repro.analysis.audit import (  # noqa: F401  (import = registration)
        rules_cache,
        rules_determinism,
        rules_fsio,
        rules_registry,
        rules_tests,
        rules_twins,
    )


# ---------------------------------------------------------------- the audit


def iter_source_paths(repo_root: Path) -> List[Path]:
    """Every Python file the audit parses, deterministically ordered."""
    paths: List[Path] = []
    for root in (repo_root / SRC_PREFIX, repo_root / TESTS_PREFIX):
        if root.is_dir():
            paths.extend(sorted(root.rglob("*.py")))
    return paths


@dataclass
class AuditReport:
    """The outcome of one audit run.

    ``stale_allowlist`` names each :class:`AllowEntry` whose prefix
    matches no scanned file, or that suppressed no finding this run: a
    hole nobody needs anymore, to be deleted.
    """

    findings: List[AuditRecord]
    stale_allowlist: List[str] = field(default_factory=list)


def run_audit_report(
    repo_root: "str | Path",
    allowlist: Tuple[AllowEntry, ...] = DEFAULT_ALLOWLIST,
) -> AuditReport:
    """Parse the tree, run every checker, filter, and sort the findings."""
    load_builtin_checkers()
    root = Path(repo_root).resolve()

    corpus: List[SourceFile] = []
    findings: List[AuditRecord] = []
    for path in iter_source_paths(root):
        rel = path.relative_to(root).as_posix()
        try:
            text = path.read_text(encoding="utf-8")
            corpus.append(SourceFile(rel, text))
        except (OSError, SyntaxError, ValueError) as exc:
            findings.append(
                AuditRecord(
                    rule="audit.unparseable",
                    path=rel,
                    line=getattr(exc, "lineno", 0) or 0,
                    severity=SEVERITY_ERROR,
                    detail=f"cannot parse: {exc}",
                )
            )

    for source in corpus:
        for checker, _ in _FILE_CHECKERS:
            findings.extend(checker(source))
    for checker, _ in _PROJECT_CHECKERS:
        findings.extend(checker(corpus))

    by_path = {source.rel_path: source for source in corpus}
    allow_hits = [0] * len(allowlist)
    kept: List[AuditRecord] = []
    for record in findings:
        source = by_path.get(record.path)
        if source is not None and source.suppressed(record.line, record.rule):
            continue
        matched = next(
            (
                i
                for i, entry in enumerate(allowlist)
                if entry.covers(record.path, record.rule)
            ),
            None,
        )
        if matched is not None:
            allow_hits[matched] += 1
            continue
        kept.append(record)
    kept.sort(key=lambda r: (r.path, r.line, r.rule, r.detail))

    stale: List[str] = []
    for entry, hits in zip(allowlist, allow_hits):
        label = f"{entry.path_prefix} ({', '.join(entry.rules)})"
        if not any(s.rel_path.startswith(entry.path_prefix) for s in corpus):
            stale.append(f"{label}: matches no scanned file")
        elif hits == 0:
            stale.append(f"{label}: suppresses no finding")
    return AuditReport(findings=kept, stale_allowlist=stale)


def run_audit(repo_root: "str | Path") -> List[AuditRecord]:
    """The findings of an audit run (see :func:`run_audit_report`)."""
    return run_audit_report(repo_root).findings
