"""Findings and report model for ``repro lint``.

A :class:`Finding` is one rule violation anchored to a file/line; a
:class:`LintReport` aggregates them with the scan inventory. The JSON shape
emitted by :meth:`LintReport.to_json` is a stable contract (documented in
README "Static invariants") so CI and editor tooling can consume it:

.. code-block:: json

    {
      "version": 1,
      "files_scanned": 57,
      "findings": [
        {"rule": "rng-module-call", "path": "benchmarks/x.py",
         "line": 12, "col": 8, "message": "..."}
      ],
      "counts": {"rng-module-call": 1}
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Finding", "LintReport", "RULES"]

#: Registry of every rule id with a one-line description. ``repro lint
#: --list-rules`` prints it; the suppression parser validates against it.
RULES: dict[str, str] = {
    "parse-error": "file could not be parsed as Python",
    "congest-global-read": (
        "NodeProgram method reads module-level mutable state or driver "
        "closure state (nodes may only see self + Context)"
    ),
    "congest-graph-state": (
        "NodeProgram receives or touches Graph/Network state (nodes must "
        "not see the global topology)"
    ),
    "congest-context-api": (
        "NodeProgram touches a Context attribute outside the public API "
        "(send/send_all/wake/halt/node/n/degree/round/inbox/shared/rng)"
    ),
    "rng-module-call": (
        "call into the np.random module-level stream (ban includes "
        "np.random.seed / default_rng); use repro.util.rng instead"
    ),
    "rng-stdlib-random": (
        "stdlib random module imported; all randomness must flow through "
        "repro.util.rng generators"
    ),
    "rng-generator-construct": (
        "np.random.Generator / bit-generator constructed outside "
        "repro/util/rng.py (breaks the identical-RNG-consumption guarantee)"
    ),
    "bits-unpriced-payload": (
        "payload sent via ctx.send/send_all has a type with no pricing "
        "rule in repro.util.bits.bits_for_payload"
    ),
    "parity-unverified-backend": (
        "public function declares backend= but no check_* named in "
        "engine/verify.py's ROWS table calls it (new backend entry points "
        "need an equivalence check)"
    ),
    "parity-untested-check": (
        "engine/verify.py check_* is not named in its ROWS table, so neither "
        "the sweep nor the boundary matrix runs it"
    ),
    "obs-discipline": (
        "time.perf_counter / resource / tracemalloc used in library code "
        "outside repro/obs/; route timing and memory probes through "
        "obs.span(...) so they land in the trace ledger"
    ),
    "parity-unverified-kernel": (
        "public engine/kernels.py entry point is not called by a check_* "
        "named in engine/verify.py's ROWS table (batched kernels need a "
        "bit-identity check before the engine may use them)"
    ),
}


@dataclass(frozen=True)
class Finding:
    """One rule violation: ``rule`` at ``path:line:col`` with a message."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


@dataclass
class LintReport:
    """Aggregate outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return out

    def sorted_findings(self) -> list[Finding]:
        return sorted(self.findings, key=lambda f: (f.path, f.line, f.col, f.rule))

    def to_json(self) -> str:
        payload = {
            "version": 1,
            "files_scanned": self.files_scanned,
            "findings": [f.as_dict() for f in self.sorted_findings()],
            "counts": self.counts(),
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    def format_text(self) -> str:
        lines = [f.format() for f in self.sorted_findings()]
        noun = "finding" if len(self.findings) == 1 else "findings"
        lines.append(
            f"{len(self.findings)} {noun} in {self.files_scanned} files"
        )
        return "\n".join(lines)
