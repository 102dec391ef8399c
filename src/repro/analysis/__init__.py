"""``repro lint`` — static invariant checks for the reproduction codebase.

Five AST-based rule families protect the guarantees the dynamic
equivalence harness (:mod:`repro.engine.verify`) can only spot-check:

1. **CONGEST legality** (:mod:`repro.analysis.congest_rules`) — node
   programs see only ``self`` and the Context, never the graph or driver
   state.
2. **RNG discipline** (:mod:`repro.analysis.rng_rules`) — all randomness
   flows through :mod:`repro.util.rng`; no hidden global streams.
3. **Bit accounting** (:mod:`repro.analysis.bits_rules`) — every sent
   payload has a pricing rule in :func:`repro.util.bits.bits_for_payload`.
4. **Backend parity** (:mod:`repro.analysis.parity_rules`) — every
   ``backend=`` entry point is called by a check that the equivalence
   harness's ``ROWS`` table runs.
5. **Observability discipline** (:mod:`repro.analysis.obs_rules`) —
   timing/memory probes in library code route through ``repro.obs``
   spans, never ad-hoc ``time.perf_counter``.

Findings can be suppressed per line with ``# repro-lint: disable=<rule>``
(comma-separate several rules) or per file with
``# repro-lint: disable-file=<rule>`` within the first ten lines.
CLI: ``python -m repro lint [paths ...] --format={text,json}``; exit code
0 = clean, 1 = findings, 2 = bad invocation.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.bits_rules import check_bit_accounting
from repro.analysis.congest_rules import check_congest_legality
from repro.analysis.model import RULES, Finding, LintReport
from repro.analysis.obs_rules import check_obs_discipline
from repro.analysis.parity_rules import check_backend_parity
from repro.analysis.rng_rules import check_rng_discipline
from repro.analysis.walker import (
    ModuleInfo,
    close_program_classes,
    iter_python_files,
    parse_module,
)

__all__ = [
    "RULES",
    "Finding",
    "LintReport",
    "ModuleInfo",
    "run_lint",
    "check_congest_legality",
    "check_rng_discipline",
    "check_bit_accounting",
    "check_backend_parity",
    "check_obs_discipline",
]

#: Where the parity rule finds the ``ROWS`` table it cross-references.
VERIFY_SUFFIX = "repro/engine/verify.py"


def _display(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def run_lint(
    paths: list[str | Path] | None = None,
    project_root: str | Path | None = None,
) -> LintReport:
    """Run every checker over ``paths`` (default: src, benchmarks, examples).

    ``project_root`` anchors display paths. The backend-parity rules read
    the ``ROWS`` table of ``engine/verify.py`` among the scanned files and
    are skipped when it is not among them.
    """
    root = Path(project_root) if project_root is not None else Path.cwd()
    if paths is None:
        candidates = [root / "src", root / "benchmarks", root / "examples"]
        scan = [p for p in candidates if p.exists()]
    else:
        scan = [Path(p) for p in paths]

    report = LintReport()
    modules: list[ModuleInfo] = []
    for path in iter_python_files(scan):
        parsed = parse_module(path, display_path=_display(path, root))
        if isinstance(parsed, Finding):
            report.findings.append(parsed)
            continue
        modules.append(parsed)
    report.files_scanned = len(modules)
    close_program_classes(modules)

    for info in modules:
        report.findings.extend(check_congest_legality(info))
        report.findings.extend(check_rng_discipline(info))
        report.findings.extend(check_bit_accounting(info))
        report.findings.extend(check_obs_discipline(info))

    verify_module = next(
        (m for m in modules if m.path.as_posix().endswith(VERIFY_SUFFIX)), None
    )
    if verify_module is not None:
        report.findings.extend(check_backend_parity(modules, verify_module))
    return report
