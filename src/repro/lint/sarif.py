"""SARIF 2.1.0 output for CI annotation tooling.

One run, one driver (``repro.lint``), one result per finding.  Findings
accepted by the committed baseline are still emitted but carry a
``suppressions`` entry (kind ``external``), which SARIF consumers (e.g.
GitHub code scanning) render as reviewed/suppressed instead of failing
the check.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from repro.lint.baseline import Baseline, normalize_path
from repro.lint.findings import Finding
from repro.lint.registry import STATIC_RULE_IDS, all_rules

SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Titles for ids that are not per-file registry rules.
_EXTRA_RULE_TITLES = {
    "R000": "file could not be parsed",
    "W001": "pragma names an unknown rule id",
    "R010": "shared mutable state (cross-tenant hazard inventory)",
}


def _rule_descriptors(rule_ids: Sequence[str]) -> List[Dict[str, object]]:
    titles: Dict[str, str] = dict(_EXTRA_RULE_TITLES)
    for rule in all_rules():
        titles[rule.rule_id] = rule.title
    return [
        {
            "id": rule_id,
            "shortDescription": {
                "text": titles.get(rule_id, rule_id),
            },
        }
        for rule_id in sorted(set(rule_ids) | set(STATIC_RULE_IDS))
    ]


def render_sarif(
    findings: Sequence[Finding],
    baseline: Optional[Baseline] = None,
    tool_version: str = "1.0",
) -> str:
    """Findings as a SARIF 2.1.0 JSON document (stable key order)."""
    results: List[Dict[str, object]] = []
    for finding in sorted(findings):
        result: Dict[str, object] = {
            "ruleId": finding.rule_id,
            "level": "warning" if finding.rule_id == "W001" else "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": normalize_path(finding.path),
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        if baseline is not None:
            justification = baseline.justification_for(finding)
            if justification is not None:
                result["suppressions"] = [
                    {
                        "kind": "external",
                        "justification": justification,
                    }
                ]
        results.append(result)
    document = {
        "$schema": _SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.lint",
                        "informationUri": "https://example.invalid/repro",
                        "version": tool_version,
                        "rules": _rule_descriptors(
                            [finding.rule_id for finding in findings]
                        ),
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True)


def write_sarif(
    findings: Sequence[Finding], path: str,
    baseline: Optional[Baseline] = None,
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_sarif(findings, baseline=baseline))
        handle.write("\n")
