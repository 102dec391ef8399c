"""Bit accounting: every sent payload must have a registered pricing rule.

Round counts are only *certified* because the simulator prices every
payload via :func:`repro.util.bits.bits_for_payload` before transport. A
payload type without a pricing rule either raises at runtime (best case) or
— the bug class the PR 1 bool/int conflation belonged to — gets priced as
something it is not. This checker flags, at every ``ctx.send(port, payload)``
/ ``ctx.send_all(payload)`` site, payload expressions whose *statically
known* type has no pricing rule.

The priced-type registry is not hardcoded: it is parsed out of
``bits_for_payload``'s own ``isinstance`` ladder (plus the ``is None``
branch), so registering a new payload type in ``util/bits.py`` is
automatically reflected here. Expressions whose type cannot be determined
statically (names, attribute loads, arbitrary calls) are never flagged —
the dynamic pricing in the simulator remains the backstop for those.
"""

from __future__ import annotations

import ast
import importlib.util
from functools import lru_cache

from repro.analysis.model import Finding
from repro.analysis.walker import ModuleInfo, ctx_params

__all__ = ["check_bit_accounting", "priced_type_names"]

#: Fallback mirror of util/bits.py, used only if its source is unavailable.
_FALLBACK_PRICED = frozenset(
    {"NoneType", "bool", "int", "float", "str", "tuple", "list"}
)

#: Calls that statically produce a priced type.
_PRICED_CALLS = frozenset(
    {
        "int", "str", "bool", "float", "tuple", "list", "len", "min", "max",
        "sum", "abs", "round", "sorted", "ord", "repr", "format",
    }
)

#: Constructor calls that statically produce an unpriced type.
_UNPRICED_CALLS = frozenset(
    {"dict", "set", "frozenset", "bytes", "bytearray", "complex", "object"}
)

#: numpy array factories (ndarray payloads have no pricing rule).
_NUMPY_ARRAY_CALLS = frozenset(
    {"array", "asarray", "zeros", "ones", "full", "empty", "arange", "linspace"}
)


@lru_cache(maxsize=1)
def priced_type_names() -> frozenset[str]:
    """Type names priced by ``bits_for_payload``, read from its own AST."""
    spec = importlib.util.find_spec("repro.util.bits")
    if spec is None or spec.origin is None:
        return _FALLBACK_PRICED
    try:
        tree = ast.parse(open(spec.origin, encoding="utf-8").read())
    except (OSError, SyntaxError):
        return _FALLBACK_PRICED
    priced: set[str] = set()
    func = next(
        (
            n
            for n in tree.body
            if isinstance(n, ast.FunctionDef) and n.name == "bits_for_payload"
        ),
        None,
    )
    if func is None:
        return _FALLBACK_PRICED
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            types = node.args[1]
            elts = types.elts if isinstance(types, ast.Tuple) else [types]
            for elt in elts:
                if isinstance(elt, ast.Name):
                    priced.add(elt.id)
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, ast.Is) for op in node.ops
        ):
            if any(
                isinstance(c, ast.Constant) and c.value is None
                for c in node.comparators
            ):
                priced.add("NoneType")
    return frozenset(priced) if priced else _FALLBACK_PRICED


def _classify(info: ModuleInfo, expr: ast.expr) -> str | None:
    """Statically known type name of ``expr``, or ``None`` when unknown.

    Only returns a name when the type is certain; uncertainty is never a
    finding.
    """
    if isinstance(expr, ast.Constant):
        return type(expr.value).__name__
    if isinstance(expr, ast.JoinedStr):
        return "str"
    if isinstance(expr, (ast.Tuple, ast.List)):
        # the container itself is priced; recurse for unpriced elements
        for elt in expr.elts:
            if isinstance(elt, ast.Starred):
                continue
            inner = _classify(info, elt)
            if inner is not None and inner not in priced_type_names():
                return inner
        return "tuple" if isinstance(expr, ast.Tuple) else "list"
    if isinstance(expr, ast.ListComp):
        return "list"
    if isinstance(expr, ast.Dict) or isinstance(expr, ast.DictComp):
        return "dict"
    if isinstance(expr, ast.Set) or isinstance(expr, ast.SetComp):
        return "set"
    if isinstance(expr, ast.GeneratorExp):
        return "generator"
    if isinstance(expr, ast.Lambda):
        return "function"
    if isinstance(expr, ast.IfExp):
        for branch in (expr.body, expr.orelse):
            t = _classify(info, branch)
            if t is not None and t not in priced_type_names():
                return t
        return None
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name):
            if func.id in _UNPRICED_CALLS:
                return func.id
            if func.id in _PRICED_CALLS:
                return None  # priced or int-like; never flag
        elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if (
                func.value.id in info.numpy_aliases
                and func.attr in _NUMPY_ARRAY_CALLS
            ):
                return "ndarray"
        return None
    return None


def _payload_args(call: ast.Call, method: str) -> list[ast.expr]:
    """The payload expression(s) of one send call."""
    out: list[ast.expr] = []
    wanted_pos = 1 if method == "send" else 0
    for i, arg in enumerate(call.args):
        if i == wanted_pos and not isinstance(arg, ast.Starred):
            out.append(arg)
    for kw in call.keywords:
        if kw.arg == "payload":
            out.append(kw.value)
    return out


def check_bit_accounting(info: ModuleInfo) -> list[Finding]:
    """Flag statically-unpriced payloads at every Context send site."""
    findings: list[Finding] = []
    priced = priced_type_names()
    for node in ast.walk(info.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        ctx_names = ctx_params(node)
        if not ctx_names:
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in ("send", "send_all")
                and isinstance(func.value, ast.Name)
                and func.value.id in ctx_names
            ):
                continue
            for payload in _payload_args(call, func.attr):
                typename = _classify(info, payload)
                if typename is not None and typename not in priced:
                    findings += info.finding(
                        "bits-unpriced-payload",
                        payload,
                        f"payload of type {typename!r} reaches "
                        f"ctx.{func.attr} but bits_for_payload has no "
                        "pricing rule for it; send ints/strs/tuples or "
                        "register a rule in repro/util/bits.py",
                    )
    return findings
