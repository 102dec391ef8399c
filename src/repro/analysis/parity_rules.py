"""Backend parity: every ``backend=`` entry point needs an equivalence check.

The two-backend architecture only stays honest while every function that
accepts ``backend=`` is cross-checked — a new vectorized twin that nobody
registered in :mod:`repro.engine.verify` ships uncertified and can drift
silently. This checker closes the loop statically. A check counts only if
the module-level ``ROWS`` table of ``engine/verify.py`` names it: that
table is what the randomized sweep and the boundary matrix run, so a
mention anywhere else (a test file, a helper) certifies nothing.

* ``parity-unverified-backend`` — a public module-level function under the
  ``repro`` package declares a ``backend`` parameter, but no ``check_*``
  that ``ROWS`` names calls it.
* ``parity-untested-check`` — a public ``check_*`` in ``engine/verify.py``
  is not named in ``ROWS`` — a check that exists but never executes is as
  good as absent.
* ``parity-unverified-kernel`` — a public top-level function that
  ``engine/kernels.py`` defines or re-exports from another ``repro``
  module (the shared BFS, CSR and span primitives every batched path is
  built from) that no ``check_*`` named in ``ROWS`` calls. Kernels have no
  ``backend=`` parameter, so the first rule cannot see them — yet a
  drifting kernel corrupts every strategy at once.

Coverage is computed syntactically (call/reference names), so the checker
never imports the code under analysis.
"""

from __future__ import annotations

import ast

from repro.analysis.model import Finding
from repro.analysis.walker import ModuleInfo

__all__ = ["check_backend_parity", "backend_entry_points"]


def _top_level_functions(info: ModuleInfo) -> list[ast.FunctionDef]:
    return [n for n in info.tree.body if isinstance(n, ast.FunctionDef)]


def _kernel_names(info: ModuleInfo) -> list[tuple[str, ast.AST]]:
    """``(name, node)`` of every function ``info`` defines, and of every
    name it imports from a ``repro.*`` module (a re-exported kernel)."""
    out: list[tuple[str, ast.AST]] = [
        (f.name, f) for f in _top_level_functions(info)
    ]
    for node in info.tree.body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "repro."
        ):
            out.extend((alias.asname or alias.name, node) for alias in node.names)
    return out


def backend_entry_points(info: ModuleInfo) -> list[ast.FunctionDef]:
    """Public module-level functions of ``info`` declaring ``backend=``."""
    out = []
    for func in _top_level_functions(info):
        if func.name.startswith("_"):
            continue
        argnames = {
            a.arg
            for a in func.args.posonlyargs + func.args.args + func.args.kwonlyargs
        }
        if "backend" in argnames:
            out.append(func)
    return out


def _called_names(node: ast.AST) -> set[str]:
    """Names invoked anywhere under ``node`` (``f(...)`` and ``m.f(...)``)."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Name):
                out.add(func.id)
            elif isinstance(func, ast.Attribute):
                out.add(func.attr)
    return out


def _referenced_names(node: ast.AST) -> set[str]:
    """Every identifier mentioned under ``node`` (names + attribute names +
    ``from x import y`` names)."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                out.add(alias.asname or alias.name.split(".")[-1])
    return out


def _rows_names(verify_module: ModuleInfo) -> set[str]:
    """Every identifier under the value of the module-level ``ROWS``."""
    for node in verify_module.tree.body:
        if isinstance(node, ast.Assign):
            targets: list[ast.expr] = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        named = any(isinstance(t, ast.Name) and t.id == "ROWS" for t in targets)
        if named and node.value is not None:
            return _referenced_names(node.value)
    return set()


def check_backend_parity(
    src_modules: list[ModuleInfo], verify_module: ModuleInfo
) -> list[Finding]:
    """Cross-reference ``backend=`` entry points and kernels with the
    ``check_*`` functions that ``engine/verify.py``'s ``ROWS`` names."""
    findings: list[Finding] = []

    check_funcs = [
        f for f in _top_level_functions(verify_module) if f.name.startswith("check_")
    ]
    rows = _rows_names(verify_module)
    covered: set[str] = set()
    for func in check_funcs:
        if func.name in rows:
            covered |= _called_names(func)

    verify_path = verify_module.path.resolve()
    for info in src_modules:
        if info.path.resolve() == verify_path:
            continue
        if "repro" not in info.path.parts:
            continue
        for func in backend_entry_points(info):
            if func.name in covered:
                continue
            findings += info.finding(
                "parity-unverified-backend",
                func,
                f"{func.name}() declares backend= but no check_* named in "
                "engine/verify.py's ROWS calls it; add an equivalence check "
                "and a row before shipping a second backend",
            )

    for info in src_modules:
        if not info.path.as_posix().endswith("repro/engine/kernels.py"):
            continue
        for name, node in _kernel_names(info):
            if name.startswith("_") or name in covered:
                continue
            findings += info.finding(
                "parity-unverified-kernel",
                node,
                f"{name}() is a public engine/kernels.py primitive but no "
                "check_* named in engine/verify.py's ROWS calls it; add a "
                "bit-identity check before batched paths may rely on it",
            )

    for func in check_funcs:
        if func.name in rows:
            continue
        findings += verify_module.finding(
            "parity-untested-check",
            func,
            f"{func.name}() is defined in engine/verify.py but not named in "
            "its ROWS table, so neither the sweep nor the boundary matrix "
            "runs it; add a row",
        )
    return findings
