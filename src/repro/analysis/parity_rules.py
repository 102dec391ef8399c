"""Backend parity: every ``backend=`` entry point needs an equivalence check.

The two-backend architecture only stays honest while every function that
accepts ``backend=`` is cross-checked — a new vectorized twin that nobody
registered in :mod:`repro.engine.verify` ships uncertified and can drift
silently. This checker closes the loop statically:

* ``parity-unverified-backend`` — a public module-level function under the
  ``repro`` package declares a ``backend`` parameter, but no ``check_*``
  function in ``engine/verify.py`` calls it and
  ``tests/test_engine_equivalence.py`` never references it.
* ``parity-untested-check`` — a public ``check_*`` in ``engine/verify.py``
  is neither referenced by ``tests/test_engine_equivalence.py`` nor invoked
  by :func:`repro.engine.verify.verify_equivalence` (the sweep CI runs) —
  a check that exists but never executes is as good as absent.
* ``parity-unverified-kernel`` — a public top-level function that
  ``engine/kernels.py`` defines or re-exports from another ``repro``
  module (the shared BFS, CSR and span primitives every batched path is
  built from) that no ``check_*`` calls and the equivalence test file
  never references. Kernels have no ``backend=`` parameter, so the first
  rule cannot see them — yet a drifting kernel corrupts every strategy at
  once.

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


def check_backend_parity(
    src_modules: list[ModuleInfo],
    verify_module: ModuleInfo,
    equivalence_test_module: ModuleInfo,
) -> list[Finding]:
    """Cross-reference ``backend=`` entry points, verify checks, and tests."""
    findings: list[Finding] = []

    verify_funcs = _top_level_functions(verify_module)
    check_funcs = [f for f in verify_funcs if f.name.startswith("check_")]
    check_covered: set[str] = set()
    for func in check_funcs:
        check_covered |= _called_names(func)
    test_referenced = _referenced_names(equivalence_test_module.tree)

    verify_path = verify_module.path.resolve()
    for info in src_modules:
        if info.path.resolve() == verify_path:
            continue
        if "repro" not in info.path.parts:
            continue
        for func in backend_entry_points(info):
            if func.name in check_covered or func.name in test_referenced:
                continue
            findings += info.finding(
                "parity-unverified-backend",
                func,
                f"{func.name}() declares backend= but no engine/verify.py "
                "check_* calls it and tests/test_engine_equivalence.py never "
                "references it; add an equivalence check before shipping a "
                "second backend",
            )

    for info in src_modules:
        if not info.path.as_posix().endswith("repro/engine/kernels.py"):
            continue
        for name, node in _kernel_names(info):
            if name.startswith("_"):
                continue
            if name in check_covered or name in test_referenced:
                continue
            findings += info.finding(
                "parity-unverified-kernel",
                node,
                f"{name}() is a public engine/kernels.py primitive but "
                "no engine/verify.py check_* calls it and "
                "tests/test_engine_equivalence.py never references it; add "
                "a bit-identity check before batched paths may rely on it",
            )

    sweep = next((f for f in verify_funcs if f.name == "verify_equivalence"), None)
    sweep_covered = _called_names(sweep) if sweep is not None else set()
    for func in check_funcs:
        if func.name.startswith("_"):
            continue
        if func.name in test_referenced or func.name in sweep_covered:
            continue
        findings += verify_module.finding(
            "parity-untested-check",
            func,
            f"{func.name}() is registered in engine/verify.py but neither "
            "tests/test_engine_equivalence.py nor the verify_equivalence "
            "sweep runs it; wire it into both",
        )
    return findings
