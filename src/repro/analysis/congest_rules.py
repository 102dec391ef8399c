"""CONGEST legality: node programs may only see ``self`` and the Context.

The model (``congest/program.py``) promises that a node "cannot see the
graph, other nodes' state, or the future". Dynamically nothing enforces
that — a :class:`~repro.congest.program.NodeProgram` is ordinary Python and
*could* read module globals or a captured ``Graph``. This checker is the
static race-detector for that promise. Inside every method of every
``NodeProgram`` subclass it flags:

* ``congest-global-read`` — reads of module-level **mutable** state
  (lowercase module variables), ``global``/``nonlocal`` declarations, and
  reads of names that resolve to an enclosing function's scope (a driver
  closure smuggling state into the node). Imports, ``def``/``class``
  names, and ALL_CAPS constants are legal: they are code and protocol
  constants, not runtime state.
* ``congest-graph-state`` — a method parameter named/annotated as the
  global topology (``graph``/``network``/``net``/``g``, or annotated
  ``Graph``/``Network``) or any ``self.graph``-style attribute access.
  Nodes receive *local* facts (their ports, their counts); handing them
  the ``Graph`` is the distributed analog of sharing memory across ranks.
* ``congest-context-api`` — touching a ``Context`` attribute outside the
  public API (e.g. ``ctx._outbox``), or assigning to any ``Context``
  attribute. The Context surface is the model's only legal channel.
"""

from __future__ import annotations

import ast
import builtins

from repro.analysis.model import Finding
from repro.analysis.walker import ModuleInfo, ctx_params

__all__ = ["check_congest_legality", "CONTEXT_API"]

#: The public per-round surface of repro.congest.program.Context.
CONTEXT_API = frozenset(
    {
        "node", "n", "degree", "round", "inbox", "shared", "rng",
        "send", "send_all", "wake", "halt",
    }
)

GRAPH_PARAM_NAMES = frozenset({"graph", "network", "net", "g"})
GRAPH_TYPE_TOKENS = ("Graph", "Network")

_BUILTINS = frozenset(dir(builtins))


def _annotation_nodes(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[int]:
    """ids of every AST node living inside a type annotation (skipped when
    resolving name reads — annotations are types, not runtime state)."""
    ignored: set[int] = set()
    roots: list[ast.AST] = []
    all_args = (
        func.args.posonlyargs + func.args.args + func.args.kwonlyargs
        + ([func.args.vararg] if func.args.vararg else [])
        + ([func.args.kwarg] if func.args.kwarg else [])
    )
    for a in all_args:
        if a.annotation is not None:
            roots.append(a.annotation)
    if func.returns is not None:
        roots.append(func.returns)
    for node in ast.walk(func):
        if isinstance(node, ast.AnnAssign) and node.annotation is not None:
            roots.append(node.annotation)
    for root in roots:
        for node in ast.walk(root):
            ignored.add(id(node))
    return ignored


def _local_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Every name bound anywhere inside the method (args, assignments,
    loop/with/except targets, comprehension vars, nested defs and their
    args). A conservative superset: anything bound locally is never
    reported as a global read."""
    names: set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
            args = node.args
            for a in (
                args.posonlyargs + args.args + args.kwonlyargs
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                names.add(a.arg)
        elif isinstance(node, ast.Lambda):
            args = node.args
            for a in (
                args.posonlyargs + args.args + args.kwonlyargs
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            ):
                names.add(a.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.add(node.name)
    return names


def _annotation_mentions_graph(annotation: ast.AST | None) -> bool:
    if annotation is None:
        return False
    text = ast.unparse(annotation)
    return any(token in text for token in GRAPH_TYPE_TOKENS)


def _check_method(
    info: ModuleInfo, cls: ast.ClassDef, func: ast.FunctionDef | ast.AsyncFunctionDef
) -> list[Finding]:
    findings: list[Finding] = []
    where = f"{cls.name}.{func.name}"

    # -- graph-state: parameters carrying the global topology ------------- #
    for a in func.args.posonlyargs + func.args.args + func.args.kwonlyargs:
        if a.arg == "self":
            continue
        if a.arg in GRAPH_PARAM_NAMES or _annotation_mentions_graph(a.annotation):
            findings += info.finding(
                "congest-graph-state",
                a,
                f"{where} takes parameter {a.arg!r} carrying global "
                "graph/network state; node programs may only receive "
                "node-local inputs",
            )

    ignored = _annotation_nodes(func)
    local = _local_names(func)
    ctx_names = ctx_params(func)
    bindings = info.module_bindings

    for node in ast.walk(func):
        if id(node) in ignored:
            continue
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            findings += info.finding(
                "congest-global-read",
                node,
                f"{where} declares {'global' if isinstance(node, ast.Global) else 'nonlocal'} "
                f"{', '.join(node.names)}; node programs must keep all state on self",
            )
            continue
        if isinstance(node, ast.Attribute):
            value = node.value
            # Context surface
            if isinstance(value, ast.Name) and value.id in ctx_names:
                if isinstance(node.ctx, (ast.Store, ast.Del)):
                    findings += info.finding(
                        "congest-context-api",
                        node,
                        f"{where} assigns to ctx.{node.attr}; Context "
                        "attributes are simulator-owned and read-only",
                    )
                elif node.attr not in CONTEXT_API:
                    findings += info.finding(
                        "congest-context-api",
                        node,
                        f"{where} touches ctx.{node.attr}, which is not part "
                        "of the public Context API "
                        f"({', '.join(sorted(CONTEXT_API))})",
                    )
            # self.graph / self.network / self.net
            elif (
                isinstance(value, ast.Name)
                and value.id == "self"
                and node.attr in GRAPH_PARAM_NAMES
                and node.attr != "g"
            ):
                findings += info.finding(
                    "congest-graph-state",
                    node,
                    f"{where} touches self.{node.attr}; storing the global "
                    "graph/network on a node program defeats CONGEST locality",
                )
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
            if name in local or name in ctx_names:
                continue
            kind = bindings.get(name)
            if kind == "mutable":
                findings += info.finding(
                    "congest-global-read",
                    node,
                    f"{where} reads module-level mutable state {name!r}; "
                    "nodes may only see self and the Context (make it an "
                    "ALL_CAPS constant if it is protocol-static)",
                )
            elif kind is None and name not in _BUILTINS:
                findings += info.finding(
                    "congest-global-read",
                    node,
                    f"{where} reads {name!r}, which is neither local, "
                    "module-level, nor a builtin — a driver closure is "
                    "smuggling state into the node program",
                )
    return findings


def check_congest_legality(info: ModuleInfo) -> list[Finding]:
    """Run the three ``congest-*`` rules over one module."""
    findings: list[Finding] = []
    for cls in info.program_classes:
        for item in cls.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings += _check_method(info, cls, item)
    return findings
