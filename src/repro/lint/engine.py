"""The lint engine: file walking, pragma suppression, baseline filtering.

The engine is a pure function from source trees to findings:

1. parse each ``.py`` file with :mod:`ast`;
2. build the module's :class:`~repro.lint.dataflow.ModuleModel` once and
   run every applicable rule from :data:`repro.lint.rules.RULES` over it;
3. drop findings suppressed by an inline pragma
   (``# repro: allow[RULE]`` on the flagged line, or anywhere in the
   contiguous comment-only block directly above it);
4. drop findings whose fingerprint appears in the committed baseline —
   pre-existing accepted findings never block CI, new regressions do.

Findings are reported in canonical ``(path, line, col, rule)`` order, so
the output is byte-identical regardless of the order paths were given —
the linter holds itself to the determinism bar it enforces.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .dataflow import ModuleModel
from .findings import Finding, LintConfig, ModuleContext
from .rules import RULES

_PRAGMA = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]")
_COMMENT_ONLY = re.compile(r"^\s*#")


@dataclass
class LintResult:
    """Aggregate outcome of one lint invocation."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings and not self.errors

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return {k: counts[k] for k in sorted(counts)}


def fingerprint_findings(
    findings: Sequence[Finding], lines_by_path: Dict[str, List[str]]
) -> List[str]:
    """Content-addressed ids for ``findings`` (baseline input); identical
    flagged lines within a file are disambiguated by occurrence index, so
    a baseline entry pins exactly one finding."""
    seen: Dict[Tuple[str, str, str], int] = {}
    prints: List[str] = []
    for finding in sorted(findings):
        lines = lines_by_path.get(finding.path, [])
        text = lines[finding.line - 1] if 0 < finding.line <= len(lines) else ""
        key = (finding.rule, finding.path, text.strip())
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        prints.append(finding.fingerprint(text, occurrence))
    return prints


def _suppressed_rules(lines: List[str], line_no: int) -> Set[str]:
    """Rule ids allowed at ``line_no`` (1-based) by inline pragmas.

    A pragma applies when it appears on the flagged line itself or
    anywhere in the contiguous block of comment-only lines directly
    above it — multi-line justifications are encouraged, so the pragma
    may sit at the top of its explanatory comment block.
    """
    allowed: Set[str] = set()
    candidates = []
    if 0 < line_no <= len(lines):
        candidates.append(lines[line_no - 1])
        above = line_no - 2
        while above >= 0 and _COMMENT_ONLY.match(lines[above]):
            candidates.append(lines[above])
            above -= 1
    for text in candidates:
        for match in _PRAGMA.finditer(text):
            allowed.update(
                token.strip().upper()
                for token in match.group(1).split(",")
                if token.strip()
            )
    return allowed


def lint_source(
    source: str,
    relpath: str,
    config: Optional[LintConfig] = None,
) -> Tuple[List[Finding], List[Finding]]:
    """Lint one module's text.  Returns ``(active, suppressed)``.

    Raises :class:`SyntaxError` if the source does not parse; callers
    decide whether that is fatal (the CLI reports it and exits 2).
    """
    config = config or LintConfig()
    tree = ast.parse(source, filename=relpath)
    lines = source.splitlines()
    model = ModuleModel(
        tree,
        unordered_attrs=config.unordered_attrs,
        unordered_methods=config.unordered_methods,
    )
    ctx = ModuleContext(
        relpath=relpath, tree=tree, lines=lines, model=model, config=config
    )
    for rule in RULES.values():
        if rule.applies(ctx):
            rule.run(ctx)
    active: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in sorted(set(ctx.findings)):
        if finding.rule in _suppressed_rules(lines, finding.line):
            suppressed.append(finding)
        else:
            active.append(finding)
    return active, suppressed


def iter_python_files(paths: Sequence[str]) -> Iterable[Path]:
    """Every ``.py`` file under ``paths`` in canonical (sorted) order."""
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            candidates = []
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def lint_paths(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
    baseline: Optional[Set[str]] = None,
) -> Tuple[LintResult, Dict[str, List[str]]]:
    """Lint files/directories.  Returns the result plus each linted
    file's source lines (needed to fingerprint against the baseline)."""
    config = config or LintConfig()
    result = LintResult()
    lines_by_path: Dict[str, List[str]] = {}
    for path in iter_python_files(paths):
        relpath = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            result.errors.append(f"{relpath}: unreadable ({exc})")
            continue
        try:
            active, suppressed = lint_source(source, relpath, config)
        except SyntaxError as exc:
            result.errors.append(
                f"{relpath}:{exc.lineno or 0}: syntax error: {exc.msg}"
            )
            continue
        result.files_checked += 1
        lines_by_path[relpath] = source.splitlines()
        result.findings.extend(active)
        result.suppressed.extend(suppressed)
    result.findings.sort()
    result.suppressed.sort()
    if baseline:
        kept: List[Finding] = []
        prints = fingerprint_findings(result.findings, lines_by_path)
        for finding, print_ in zip(result.findings, prints):
            if print_ in baseline:
                result.baselined.append(finding)
            else:
                kept.append(finding)
        result.findings = kept
    return result, lines_by_path
