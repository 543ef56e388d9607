"""``tfrc-audit``: the static-analysis entry point.

Usage::

    tfrc-audit [--root DIR] [--json] [--annotations]
    tfrc-audit --rules-markdown

One way to run: the whole tree.  Exit codes: 0 = clean, 1 = findings,
2 = ``--root`` has no ``src/repro`` tree.  A finding is accepted only at
its source, with a written reason: an inline ``# tfrc-audit:
ignore[rule] -- why`` or a ``DEFAULT_ALLOWLIST`` entry
(:mod:`repro.analysis.audit.engine`).

``--json`` emits ``{"tool", "root", "findings"}`` in the findings-record
schema shared with ``tfrc-sweep-fsck --json`` (see
:mod:`repro.analysis.audit.records`), so one consumer parses both CI
artifacts.  ``--annotations`` renders findings as GitHub Actions
workflow commands (``::error file=...,line=...``) so they surface inline
on PRs.  ``--rules-markdown`` prints the rule table the README embeds,
so the docs are generated from :func:`all_rules` rather than maintained
by hand.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.audit.engine import all_rules, run_audit
from repro.analysis.audit.records import AuditRecord


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfrc-audit",
        description="AST-based invariant analyzer for the repro tree "
        "(determinism, fs-commit protocol, cache contract, registry "
        "coherence, test-tier hygiene).",
    )
    parser.add_argument(
        "--root", default=".", metavar="DIR",
        help="repository root to audit (default: current directory)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit findings as JSON (schema shared with tfrc-sweep-fsck)",
    )
    parser.add_argument(
        "--annotations", action="store_true",
        help="also emit a GitHub Actions ::error workflow command for "
        "each finding",
    )
    parser.add_argument(
        "--rules-markdown", action="store_true",
        help="print the rule table as markdown (the README embeds this "
        "output) and exit",
    )
    return parser


def rules_markdown() -> str:
    """The README's rule table, generated from the registry."""
    lines = [
        "| rule | severity | what it catches |",
        "| --- | --- | --- |",
    ]
    for rule in all_rules():
        lines.append(f"| `{rule.id}` | {rule.severity} | {rule.summary} |")
    return "\n".join(lines) + "\n"


def _annotate(out, record: AuditRecord) -> None:
    """One GitHub Actions workflow command for a finding."""
    detail = record.detail.replace("\n", " ")
    print(
        f"::error file={record.path},line={record.line},"
        f"title=tfrc-audit {record.rule}::{detail}",
        file=out,
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout

    if args.rules_markdown:
        out.write(rules_markdown())
        return 0

    root = Path(args.root).resolve()
    if not (root / "src" / "repro").is_dir():
        print(
            f"tfrc-audit: {root} has no src/repro tree (wrong --root?)",
            file=sys.stderr,
        )
        return 2

    findings = run_audit(root)
    if args.as_json:
        document = {
            "tool": "tfrc-audit",
            "root": str(root),
            "findings": [record.to_dict() for record in findings],
        }
        json.dump(document, out, indent=2, sort_keys=True, allow_nan=False)
        out.write("\n")
    else:
        for record in findings:
            print(record.render(), file=out)
        print(f"tfrc-audit: {len(findings)} finding(s)", file=out)
    if args.annotations:
        for record in findings:
            _annotate(out, record)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
