"""Shared AST infrastructure for the ``repro lint`` checkers.

Each scanned file is parsed once into a :class:`ModuleInfo` carrying the
tree plus the derived facts every checker needs:

* suppression comments — ``# repro-lint: disable=<rule>[,<rule>]`` on the
  offending line (or the ``def``/``class`` line for definition-anchored
  findings) and ``# repro-lint: disable-file=<rule>`` anywhere in the first
  ten lines of the file;
* import aliases — which local names are bound to ``numpy``, to the
  ``numpy.random`` submodule, or to the stdlib ``random`` module;
* module-scope bindings — name → kind (``import`` / ``def`` / ``const`` /
  ``mutable``), the resolution table the CONGEST-legality checker uses to
  tell a constant lookup from a read of driver state;
* the :class:`~repro.congest.program.NodeProgram` subclasses defined in the
  module (matched syntactically by base-class name, so the checkers never
  import the code under analysis); :func:`close_program_classes` adds the
  classes derived from a program of any scanned module.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.model import RULES, Finding

__all__ = [
    "ModuleInfo",
    "close_program_classes",
    "ctx_params",
    "parse_module",
    "iter_python_files",
]

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable(?P<file>-file)?\s*=\s*(?P<rules>[\w,\- ]+)")

#: Base-class names that mark a class as a per-node CONGEST program.
PROGRAM_BASES = frozenset({"NodeProgram"})


def _is_const_name(name: str) -> bool:
    """Module-level ALL_CAPS names (``_ANNOUNCE``, ``_OPS``) are constants."""
    stripped = name.strip("_")
    return bool(stripped) and stripped == stripped.upper()


@dataclass
class ModuleInfo:
    """One parsed file plus the cross-checker derived facts."""

    path: Path
    display_path: str
    tree: ast.Module
    source_lines: list[str]
    #: line number -> set of suppressed rule ids ("all" wildcards everything)
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    file_suppressions: set[str] = field(default_factory=set)
    #: local names bound to the numpy package (``import numpy as np``)
    numpy_aliases: set[str] = field(default_factory=set)
    #: local names bound to the numpy.random submodule
    numpy_random_aliases: set[str] = field(default_factory=set)
    #: module-scope bindings: name -> "import" | "def" | "const" | "mutable"
    module_bindings: dict[str, str] = field(default_factory=dict)
    program_classes: list[ast.ClassDef] = field(default_factory=list)

    def suppressed(self, rule: str, line: int) -> bool:
        if "all" in self.file_suppressions or rule in self.file_suppressions:
            return True
        rules = self.suppressions.get(line)
        return rules is not None and ("all" in rules or rule in rules)

    def finding(self, rule: str, node: ast.AST, message: str) -> list[Finding]:
        """Build a one-element finding list unless suppressed (empty then)."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self.suppressed(rule, line):
            return []
        return [Finding(rule, self.display_path, line, col, message)]


def _collect_suppressions(info: ModuleInfo) -> None:
    for lineno, text in enumerate(info.source_lines, start=1):
        m = _SUPPRESS_RE.search(text)
        if not m:
            continue
        rules = {r.strip() for r in m.group("rules").split(",") if r.strip()}
        rules = {r for r in rules if r == "all" or r in RULES}
        if not rules:
            continue
        if m.group("file"):
            if lineno <= 10:
                info.file_suppressions |= rules
        else:
            info.suppressions.setdefault(lineno, set()).update(rules)


def _collect_imports(info: ModuleInfo) -> None:
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                bound = alias.asname or top
                if alias.name == "numpy.random" and alias.asname:
                    info.numpy_random_aliases.add(alias.asname)
                elif top == "numpy":
                    info.numpy_aliases.add(bound)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        info.numpy_random_aliases.add(alias.asname or "random")


def _collect_module_bindings(info: ModuleInfo) -> None:
    """Top-level name resolution table (no recursion into defs)."""
    bindings = info.module_bindings
    for node in info.tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                bindings[(alias.asname or alias.name).split(".")[0]] = "import"
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bindings[node.name] = "def"
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        kind = "const" if _is_const_name(sub.id) else "mutable"
                        bindings.setdefault(sub.id, kind)
        elif isinstance(node, (ast.For, ast.While, ast.If, ast.Try, ast.With)):
            # names bound inside top-level control flow are still module
            # state; treat them like plain assignments
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                    kind = "const" if _is_const_name(sub.id) else "mutable"
                    bindings.setdefault(sub.id, kind)


def _collect_program_classes(
    info: ModuleInfo, bases: set[str] | frozenset[str] = PROGRAM_BASES
) -> None:
    """The module's classes with a base named in ``bases``."""
    info.program_classes = []
    for node in ast.walk(info.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for base in node.bases:
            name = base.attr if isinstance(base, ast.Attribute) else (
                base.id if isinstance(base, ast.Name) else ""
            )
            if name in bases:
                info.program_classes.append(node)
                break


def close_program_classes(modules: list[ModuleInfo]) -> None:
    """Extend every module's ``program_classes`` to programs derived from a
    program of any module, at any depth (still matched by class name)."""
    bases = set(PROGRAM_BASES)
    while True:
        found = bases | {c.name for info in modules for c in info.program_classes}
        if found == bases:
            return
        bases = found
        for info in modules:
            _collect_program_classes(info, bases)


def ctx_params(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names of ``func``'s parameters that carry a node's
    :class:`~repro.congest.program.Context`: ``ctx``, or any parameter whose
    annotation mentions ``Context``."""
    out = set()
    for a in func.args.posonlyargs + func.args.args + func.args.kwonlyargs:
        if a.arg == "ctx":
            out.add(a.arg)
        elif a.annotation is not None and "Context" in ast.unparse(a.annotation):
            out.add(a.arg)
    return out


def parse_module(path: Path, display_path: str | None = None) -> ModuleInfo | Finding:
    """Parse one file; returns a :class:`ModuleInfo`, or a single
    ``parse-error`` :class:`Finding` when the file is not valid Python."""
    display = display_path if display_path is not None else str(path)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as err:
        return Finding(
            "parse-error", display, err.lineno or 1, err.offset or 0,
            f"syntax error: {err.msg}",
        )
    info = ModuleInfo(
        path=path,
        display_path=display,
        tree=tree,
        source_lines=source.splitlines(),
    )
    _collect_suppressions(info)
    _collect_imports(info)
    _collect_module_bindings(info)
    _collect_program_classes(info)
    return info


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen: set[Path] = set()
    out: list[Path] = []
    for path in paths:
        if path.is_file():
            candidates = [path]
        else:
            candidates = sorted(
                p for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
                and not any(part.startswith(".") for part in p.parts)
            )
        for p in candidates:
            resolved = p.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(p)
    return out
