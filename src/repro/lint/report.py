"""Reporters: findings → human text or machine JSON."""

from __future__ import annotations

import json
from typing import Dict, Sequence

from repro.lint.findings import Finding


def render_text(findings: Sequence[Finding], files_checked: int = 0) -> str:
    """A line per finding plus a one-line summary (empty-run friendly)."""
    lines = [finding.render() for finding in findings]
    if findings:
        by_rule: Dict[str, int] = {}
        for finding in findings:
            by_rule[finding.rule_id] = by_rule.get(finding.rule_id, 0) + 1
        breakdown = ", ".join(
            f"{rule_id}×{count}" for rule_id, count in sorted(by_rule.items())
        )
        lines.append("")
        lines.append(
            f"{len(findings)} finding{'s' if len(findings) != 1 else ''} "
            f"({breakdown}) in {files_checked} files"
        )
    else:
        lines.append(f"clean: 0 findings in {files_checked} files")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], files_checked: int = 0) -> str:
    """Stable machine-readable form for CI annotation tooling."""
    payload = {
        "files_checked": files_checked,
        "findings": [finding.to_dict() for finding in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
