"""Core machinery for the invariant linter: findings, suppressions, rules.

The analyzer is deliberately self-contained (stdlib ``ast`` + ``tokenize``
only) so the CI ``static-analysis`` job can run it before any heavyweight
dependency is imported, and so the linter can never be broken by the code
it is linting.

Three comment grammars are recognised anywhere in analysed sources:

``# repro: disable=<rule>[,<rule>...] -- <justification>``
    Suppress the named rules on this line (or, when the comment stands on
    a line of its own, on the next code line).  The justification after
    ``--`` is **required**: a suppression without one is itself reported
    as a ``bad-suppression`` finding.

``# repro: disable-file=<rule>[,<rule>...] -- <justification>``
    Same, but for the whole file.

``# guarded-by: <lock>`` / ``# holds-lock: <lock>``
    Concurrency annotations consumed by the ``guarded-by`` rule (see
    :mod:`repro.analysis.rules.guarded_by`).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "register",
    "all_rules",
    "get_rules",
    "analyze_file",
    "analyze_source",
    "analyze_paths",
    "classify_role",
]

#: Reserved rule names used for problems in the analysis inputs themselves.
META_RULES = ("bad-suppression", "parse-error")

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_\-,\s]+?)"
    r"(?:\s+--\s*(.*))?\s*$"
)
_GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*(\S+)")
_HOLDS_LOCK_RE = re.compile(r"#\s*holds-lock:\s*(\S+)")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str  # posix-relative display path
    line: int
    col: int
    rule: str
    message: str

    @property
    def key(self) -> Tuple[str, str, str]:
        """Baseline identity: line numbers drift, (path, rule, message) don't."""
        return (self.path, self.rule, self.message)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


@dataclass(frozen=True)
class Suppression:
    """A parsed ``# repro: disable=`` comment."""

    line: int  # line the comment physically sits on
    rules: Tuple[str, ...]
    justification: str
    file_wide: bool = False


def classify_role(rel_path: str) -> str:
    """Map a repo-relative posix path onto a lint scope.

    ``library`` (src/repro), ``tests``, ``benchmarks`` or ``other``;
    rules pick which scopes they run in.
    """
    parts = rel_path.split("/")
    if rel_path.startswith("src/repro/") or rel_path.startswith("repro/"):
        return "library"
    if "tests" in parts[:1] or "/tests/" in rel_path:
        return "tests"
    if "benchmarks" in parts[:1] or "/benchmarks/" in rel_path:
        return "benchmarks"
    return "other"


def _library_rel(rel_path: str) -> Optional[str]:
    """The ``repro/...`` part of a library path (allowlists key off it)."""
    if rel_path.startswith("src/repro/"):
        return rel_path[len("src/"):]
    if rel_path.startswith("repro/"):
        return rel_path
    return None


class FileContext:
    """Everything a rule needs to know about one analysed file."""

    def __init__(self, source: str, rel_path: str, role: Optional[str] = None):
        self.source = source
        self.rel_path = rel_path
        self.role = role if role is not None else classify_role(rel_path)
        self.library_rel = _library_rel(rel_path)
        self.tree = ast.parse(source, filename=rel_path)
        self.lines = source.splitlines()
        # Comment scan: token-accurate (a "#" inside a string is not a
        # comment), shared by suppressions and the guarded-by annotations.
        self._comments: List[Tuple[int, int, str]] = []  # (line, col, text)
        self._code_lines: set = set()
        self._scan_tokens()
        self.suppressions: List[Suppression] = []
        self.suppression_problems: List[Finding] = []
        self._parse_suppressions()

    # ------------------------------------------------------------------
    # Token / comment scan
    # ------------------------------------------------------------------
    def _scan_tokens(self) -> None:
        code_kinds = (
            tokenize.NAME, tokenize.NUMBER, tokenize.STRING, tokenize.OP,
            tokenize.FSTRING_START if hasattr(tokenize, "FSTRING_START") else tokenize.OP,
        )
        try:
            for tok in tokenize.generate_tokens(io.StringIO(self.source).readline):
                if tok.type == tokenize.COMMENT:
                    self._comments.append((tok.start[0], tok.start[1], tok.string))
                elif tok.type in code_kinds:
                    for line in range(tok.start[0], tok.end[0] + 1):
                        self._code_lines.add(line)
        except (tokenize.TokenError, IndentationError):  # ast.parse already vetted it
            pass

    def _attach_line(self, comment_line: int) -> int:
        """The code line a comment governs: its own line, or — for a
        comment standing alone — the next line holding code."""
        if comment_line in self._code_lines:
            return comment_line
        following = [line for line in self._code_lines if line > comment_line]
        return min(following) if following else comment_line

    def comments(self) -> List[Tuple[int, int, str]]:
        return list(self._comments)

    def annotations(self, pattern: re.Pattern) -> List[Tuple[int, str]]:
        """(attached code line, captured group) for every matching comment."""
        found = []
        for line, _col, text in self._comments:
            match = pattern.search(text)
            if match:
                found.append((self._attach_line(line), match.group(1)))
        return found

    def guarded_by_annotations(self) -> List[Tuple[int, str]]:
        return self.annotations(_GUARDED_BY_RE)

    def holds_lock_annotations(self) -> List[Tuple[int, str]]:
        return self.annotations(_HOLDS_LOCK_RE)

    # ------------------------------------------------------------------
    # Suppressions
    # ------------------------------------------------------------------
    def _parse_suppressions(self) -> None:
        known = set(all_rules()) | set(META_RULES)
        for line, col, text in self._comments:
            match = _SUPPRESS_RE.search(text)
            if match is None:
                if re.search(r"#\s*repro:\s*disable", text):
                    self.suppression_problems.append(Finding(
                        self.rel_path, line, col, "bad-suppression",
                        "malformed suppression; use "
                        "'# repro: disable=<rule> -- <justification>'",
                    ))
                continue
            file_wide = match.group(1) == "disable-file"
            rules = tuple(
                name.strip() for name in match.group(2).split(",") if name.strip()
            )
            justification = (match.group(3) or "").strip()
            unknown = [name for name in rules if name not in known]
            if unknown:
                self.suppression_problems.append(Finding(
                    self.rel_path, line, col, "bad-suppression",
                    f"suppression names unknown rule(s) {', '.join(sorted(unknown))}",
                ))
            if not justification:
                self.suppression_problems.append(Finding(
                    self.rel_path, line, col, "bad-suppression",
                    "suppression is missing its justification "
                    "('# repro: disable=<rule> -- <why this is safe>')",
                ))
                continue  # an unjustified suppression suppresses nothing
            self.suppressions.append(Suppression(
                line=self._attach_line(line) if not file_wide else line,
                rules=rules,
                justification=justification,
                file_wide=file_wide,
            ))

    def is_suppressed(self, finding: Finding) -> bool:
        if finding.rule in META_RULES:
            return False  # problems with the inputs are never maskable
        for suppression in self.suppressions:
            if finding.rule not in suppression.rules:
                continue
            if suppression.file_wide or suppression.line == finding.line:
                return True
        return False


class Rule:
    """Base class for one invariant check.

    Subclasses set ``name``/``description``, declare the scopes they run
    in (``roles``), and implement :meth:`check` yielding raw findings —
    suppression filtering happens in :func:`analyze_file`.
    """

    name: str = ""
    description: str = ""
    roles: Sequence[str] = ("library",)

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.role in self.roles

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            ctx.rel_path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            self.name,
            message,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls):
    """Class decorator: instantiate and register an invariant rule."""
    rule = rule_cls()
    if not rule.name:
        raise ValueError(f"{rule_cls.__name__} must define a rule name")
    if rule.name in _REGISTRY or rule.name in META_RULES:
        raise ValueError(f"duplicate rule name {rule.name!r}")
    _REGISTRY[rule.name] = rule
    return rule_cls


def all_rules() -> Dict[str, Rule]:
    """Name -> rule instance for every registered rule."""
    from repro.analysis import rules as _rules  # noqa: F401  (registration import)

    return dict(_REGISTRY)


def get_rules(names: Optional[Iterable[str]] = None) -> List[Rule]:
    registry = all_rules()
    if names is None:
        return [registry[name] for name in sorted(registry)]
    selected = []
    for name in names:
        if name not in registry:
            raise KeyError(
                f"unknown rule {name!r}; known rules: {', '.join(sorted(registry))}"
            )
        selected.append(registry[name])
    return selected


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def analyze_file(ctx: FileContext, rules: Sequence[Rule]) -> List[Finding]:
    """Run ``rules`` over one file; returns unsuppressed findings only."""
    findings: List[Finding] = list(ctx.suppression_problems)
    for rule in rules:
        if not rule.applies_to(ctx):
            continue
        for finding in rule.check(ctx):
            if not ctx.is_suppressed(finding):
                findings.append(finding)
    return sorted(findings)


def analyze_source(
    source: str,
    rel_path: str = "src/repro/module.py",
    role: Optional[str] = None,
    rules: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Analyse a source string as if it lived at ``rel_path``.

    The test-fixture entry point: paired violating/clean snippets run
    through exactly the production driver.
    """
    try:
        ctx = FileContext(source, rel_path, role=role)
    except SyntaxError as error:
        return [Finding(rel_path, error.lineno or 1, error.offset or 0,
                        "parse-error", f"could not parse: {error.msg}")]
    return analyze_file(ctx, get_rules(rules))


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Every ``.py`` file under the given files/directories, sorted."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                yield path
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                parts = candidate.parts
                if "__pycache__" in parts or any(p.startswith(".") for p in parts):
                    continue
                yield candidate
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")


def analyze_paths(
    paths: Sequence[str],
    rules: Optional[Iterable[str]] = None,
    root: Optional[Path] = None,
) -> Tuple[List[Finding], int]:
    """Analyse files/directories; returns (findings, files analysed)."""
    selected = get_rules(rules)
    root = Path.cwd() if root is None else Path(root)
    findings: List[Finding] = []
    count = 0
    for path in iter_python_files(paths):
        count += 1
        try:
            rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
        source = path.read_text(encoding="utf-8")
        try:
            ctx = FileContext(source, rel)
        except SyntaxError as error:
            findings.append(Finding(rel, error.lineno or 1, error.offset or 0,
                                    "parse-error", f"could not parse: {error.msg}"))
            continue
        findings.extend(analyze_file(ctx, selected))
    return sorted(findings), count
