"""Tests for ``repro lint`` (:mod:`repro.analysis`).

Three layers:

* **True positives** — one fixture per rule id, violating that rule exactly
  once; asserts the rule fires at the expected line and nothing else does.
* **Suppressions** — line and file ``# repro-lint: disable`` comments
  silence exactly the named rule.
* **No false positives** — a full :func:`repro.analysis.run_lint` pass over
  the real tree (src, benchmarks, examples) must come back clean; this is
  the same invocation CI runs.

The CLI tests shell out to ``python -m repro lint`` to pin the JSON schema
and the exit-code contract.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    RULES,
    Finding,
    check_backend_parity,
    check_bit_accounting,
    check_congest_legality,
    check_obs_discipline,
    check_rng_discipline,
    run_lint,
)
from repro.analysis.walker import parse_module

REPO_ROOT = Path(__file__).resolve().parents[1]


def _parse(tmp_path: Path, source: str, name: str = "fixture.py"):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    info = parse_module(path, display_path=name)
    assert not isinstance(info, Finding), getattr(info, "message", None)
    return info


def _only(findings: list[Finding], rule: str) -> Finding:
    """Assert the fixture produced exactly one finding, of ``rule``."""
    assert [f.rule for f in findings] == [rule]
    return findings[0]


class TestCongestLegality:
    def test_global_read_of_mutable_module_state(self, tmp_path):
        info = _parse(
            tmp_path,
            """\
            from repro.congest import NodeProgram

            phase_table = {}

            class P(NodeProgram):
                def on_round(self, ctx):
                    ctx.send_all(len(phase_table))
            """,
        )
        f = _only(check_congest_legality(info), "congest-global-read")
        assert f.line == 7  # the read inside on_round, not the definition

    def test_graph_parameter_is_flagged(self, tmp_path):
        info = _parse(
            tmp_path,
            """\
            from repro.congest import NodeProgram

            class P(NodeProgram):
                def on_start(self, ctx, graph):
                    ctx.wake()
            """,
        )
        f = _only(check_congest_legality(info), "congest-graph-state")
        assert f.line == 4

    def test_self_graph_attribute_is_flagged(self, tmp_path):
        info = _parse(
            tmp_path,
            """\
            from repro.congest import NodeProgram

            class P(NodeProgram):
                def on_round(self, ctx):
                    ctx.send_all(self.graph.n)
            """,
        )
        f = _only(check_congest_legality(info), "congest-graph-state")
        assert f.line == 5

    def test_private_context_attribute_is_flagged(self, tmp_path):
        info = _parse(
            tmp_path,
            """\
            from repro.congest import NodeProgram

            class P(NodeProgram):
                def on_round(self, ctx):
                    ctx._outbox.clear()
            """,
        )
        f = _only(check_congest_legality(info), "congest-context-api")
        assert f.line == 5

    def test_legal_program_is_clean(self, tmp_path):
        info = _parse(
            tmp_path,
            """\
            from repro.congest import NodeProgram

            ANNOUNCE = 1  # protocol constant: legal to read

            class P(NodeProgram):
                def __init__(self, color):
                    self.color = color

                def on_round(self, ctx):
                    for src, payload in ctx.inbox:
                        if payload == ANNOUNCE:
                            ctx.send(src, (self.color, ctx.round))
                    if ctx.round > ctx.n:
                        ctx.halt()
            """,
        )
        assert check_congest_legality(info) == []

    def test_program_subclassed_in_another_module_is_checked(self, tmp_path):
        """A program derived from another module's program, at any depth,
        is a program too; before, only a base literally named NodeProgram
        made one, so the subclass escaped every congest rule."""
        _parse(
            tmp_path,
            """\
            from repro.congest import NodeProgram

            class Pipeline(NodeProgram):
                def on_round(self, ctx):
                    ctx.wake()
            """,
            name="src/pipeline.py",
        )
        _parse(
            tmp_path,
            """\
            from pipeline import Pipeline

            class Scheduled(Pipeline):
                pass

            class Delayed(Scheduled):
                def on_round(self, ctx):
                    ctx.send_all(self.graph.n)
            """,
            name="src/scheduled.py",
        )
        findings = run_lint([tmp_path / "src"], project_root=tmp_path).sorted_findings()
        assert [(f.rule, f.path, f.line) for f in findings] == [
            ("congest-graph-state", "src/scheduled.py", 8)
        ]

    def test_non_program_classes_are_ignored(self, tmp_path):
        info = _parse(
            tmp_path,
            """\
            registry = {}

            class Driver:
                def run(self, graph):
                    registry[graph.n] = self
            """,
        )
        assert check_congest_legality(info) == []


class TestRngDiscipline:
    def test_np_random_module_call(self, tmp_path):
        info = _parse(
            tmp_path,
            """\
            import numpy as np

            def noise(n):
                return np.random.rand(n)
            """,
        )
        f = _only(check_rng_discipline(info), "rng-module-call")
        assert f.line == 4

    def test_stdlib_random_import(self, tmp_path):
        info = _parse(tmp_path, "import random\n")
        f = _only(check_rng_discipline(info), "rng-stdlib-random")
        assert f.line == 1

    def test_generator_construction(self, tmp_path):
        info = _parse(
            tmp_path,
            """\
            import numpy as np

            def make(seed):
                return np.random.Generator(np.random.PCG64(seed))
            """,
        )
        findings = check_rng_discipline(info)
        assert [f.rule for f in findings] == ["rng-generator-construct"] * 2
        assert {f.line for f in findings} == {4}

    def test_rng_home_is_exempt(self, tmp_path):
        info = _parse(
            tmp_path,
            """\
            import numpy as np

            def rng_from_seed(seed):
                return np.random.Generator(np.random.PCG64(seed))
            """,
            name="repro/util/rng.py",
        )
        assert check_rng_discipline(info) == []

    def test_isinstance_reference_is_legal(self, tmp_path):
        info = _parse(
            tmp_path,
            """\
            import numpy as np

            def ensure(rng):
                return isinstance(rng, np.random.Generator)
            """,
        )
        assert check_rng_discipline(info) == []


class TestObsDiscipline:
    """ISSUE 10 satellite: timing/memory probes in library code must route
    through repro/obs/ spans."""

    TIMED = """\
        import time

        def run():
            t0 = time.perf_counter()
            return time.perf_counter() - t0
        """

    def test_perf_counter_call_in_library_code(self, tmp_path):
        info = _parse(tmp_path, self.TIMED, name="src/repro/core/fixture.py")
        findings = check_obs_discipline(info)
        assert [f.rule for f in findings] == ["obs-discipline"] * 2
        assert {f.line for f in findings} == {4, 5}
        assert "obs.span" in findings[0].message

    def test_from_import_alias_is_flagged_at_the_call(self, tmp_path):
        info = _parse(
            tmp_path,
            """\
            from time import perf_counter as clock

            def run():
                return clock()
            """,
            name="src/repro/engine/fixture.py",
        )
        f = _only(check_obs_discipline(info), "obs-discipline")
        assert f.line == 4

    @pytest.mark.parametrize("probe", ["resource", "tracemalloc"])
    def test_memory_probe_import_is_flagged(self, tmp_path, probe):
        info = _parse(
            tmp_path,
            f"import {probe}\n",
            name="src/repro/congest/fixture.py",
        )
        f = _only(check_obs_discipline(info), "obs-discipline")
        assert f.line == 1

    def test_obs_home_is_exempt(self, tmp_path):
        info = _parse(
            tmp_path,
            """\
            import resource
            import time

            def run():
                return time.perf_counter()
            """,
            name="src/repro/obs/fixture.py",
        )
        assert check_obs_discipline(info) == []

    def test_harness_code_is_exempt(self, tmp_path):
        for name in ("benchmarks/fixture.py", "examples/fixture.py"):
            info = _parse(tmp_path, self.TIMED, name=name)
            assert check_obs_discipline(info) == []

    def test_plain_time_time_is_legal(self, tmp_path):
        info = _parse(
            tmp_path,
            """\
            import time

            def stamp():
                return time.time()
            """,
            name="src/repro/core/fixture.py",
        )
        assert check_obs_discipline(info) == []


class TestBitAccounting:
    def test_dict_payload_is_flagged(self, tmp_path):
        info = _parse(
            tmp_path,
            """\
            def announce(ctx):
                ctx.send(0, {"phase": 1})
            """,
        )
        f = _only(check_bit_accounting(info), "bits-unpriced-payload")
        assert f.line == 2
        assert "dict" in f.message

    def test_priced_payloads_are_clean(self, tmp_path):
        info = _parse(
            tmp_path,
            """\
            def announce(ctx, color):
                ctx.send(0, (color, ctx.round))
                ctx.send_all("token")
                ctx.send_all(None)
                ctx.send_all(compute(color))  # unknown static type: not flagged
            """,
        )
        assert check_bit_accounting(info) == []


class TestBackendParity:
    """The parity rules read ``engine/verify.py``'s ``ROWS`` table: only a
    ``check_*`` that a row names covers an entry point or a kernel."""

    _SRC = """\
        def certified(graph, backend="simulator"):
            return graph

        def drifting(graph, backend="simulator"):
            return graph
        """

    _VERIFY = """\
        from repro.algo import certified, drifting

        def check_certified(graph, seed):
            certified(graph, backend="vectorized")

        def check_orphan(graph, seed):
            drifting(graph, backend="vectorized")

        ROWS = ({rows},)
        """

    def _modules(self, tmp_path, rows: str):
        src = _parse(tmp_path, self._SRC, name="src/repro/algo.py")
        verify = _parse(
            tmp_path,
            textwrap.dedent(self._VERIFY).format(rows=rows),
            name="src/repro/engine/verify.py",
        )
        return src, verify

    def test_uncovered_entry_point_and_orphan_check(self, tmp_path):
        src, verify = self._modules(tmp_path, "lambda tr: check_certified(tr.graph, 0)")
        findings = check_backend_parity([src, verify], verify)
        by_rule = {f.rule: f for f in findings}
        assert set(by_rule) == {"parity-unverified-backend", "parity-untested-check"}
        assert by_rule["parity-unverified-backend"].line == 4  # drifting()
        assert "drifting" in by_rule["parity-unverified-backend"].message
        assert "check_orphan" in by_rule["parity-untested-check"].message

    def test_rows_reference_covers_both(self, tmp_path):
        src, verify = self._modules(
            tmp_path,
            "lambda tr: check_certified(tr.graph, 0), "
            "lambda tr: check_orphan(tr.graph, 1)",
        )
        assert check_backend_parity([src, verify], verify) == []

    def test_equivalence_test_mention_does_not_cover(self, tmp_path):
        """An entry point that only the equivalence test file names, and a
        check that only the sweep function calls, are both findings."""
        files = {
            "src/repro/algo.py": self._SRC,
            "src/repro/engine/verify.py": """\
                from repro.algo import certified

                def check_certified(graph, seed):
                    certified(graph, backend="vectorized")

                def check_swept(graph, seed):
                    pass

                def verify_equivalence(graph):
                    check_swept(graph, 0)

                ROWS = (lambda tr: check_certified(tr.graph, 0),)
                """,
            "tests/test_engine_equivalence.py": """\
                from repro.algo import drifting
                from repro.engine.verify import check_swept

                def test_drifting():
                    assert check_swept(drifting(None, "vectorized"), 0) is None
                """,
        }
        for name, text in files.items():
            _parse(tmp_path, text, name=name)
        findings = run_lint(project_root=tmp_path).sorted_findings()
        assert [(f.rule, f.path) for f in findings] == [
            ("parity-unverified-backend", "src/repro/algo.py"),
            ("parity-untested-check", "src/repro/engine/verify.py"),
        ]
        assert "drifting" in findings[0].message
        assert "check_swept" in findings[1].message

    def test_uncovered_kernel_entry_point(self, tmp_path):
        src = _parse(tmp_path, self._SRC, name="src/repro/algo.py")
        kernels = _parse(
            tmp_path,
            """\
            def covered_kernel(a):
                return a

            def orphan_kernel(a):
                return a

            def _private_kernel(a):
                return a
            """,
            name="src/repro/engine/kernels.py",
        )
        verify = _parse(
            tmp_path,
            """\
            from repro.algo import certified, drifting
            from repro.engine.kernels import covered_kernel, orphan_kernel

            def check_certified(graph, seed):
                certified(graph, backend="vectorized")
                drifting(graph, backend="vectorized")
                covered_kernel(graph)

            ROWS = (lambda tr: check_certified(tr.graph, 0),)
            """,
            name="src/repro/engine/verify.py",
        )
        findings = check_backend_parity([src, verify, kernels], verify)
        assert [f.rule for f in findings] == ["parity-unverified-kernel"]
        assert "orphan_kernel" in findings[0].message
        assert findings[0].line == 4  # orphan_kernel()

    def test_uncovered_reexported_kernel(self, tmp_path):
        """A kernel defined elsewhere and re-exported by engine/kernels.py
        still needs a check: moving a kernel out must not hide it."""
        src, verify = self._modules(
            tmp_path,
            "lambda tr: check_certified(tr.graph, 0), "
            "lambda tr: check_orphan(tr.graph, 1)",
        )
        kernels = _parse(
            tmp_path,
            """\
            from repro import obs
            from repro.graphs.traversal import moved_kernel
            """,
            name="src/repro/engine/kernels.py",
        )
        findings = check_backend_parity([src, verify, kernels], verify)
        assert [f.rule for f in findings] == ["parity-unverified-kernel"]
        assert "moved_kernel" in findings[0].message
        assert findings[0].line == 2


class TestSuppressions:
    def test_line_suppression_silences_named_rule(self, tmp_path):
        info = _parse(
            tmp_path,
            """\
            import numpy as np

            def noise(n):
                return np.random.rand(n)  # repro-lint: disable=rng-module-call
            """,
        )
        assert check_rng_discipline(info) == []

    def test_line_suppression_is_rule_specific(self, tmp_path):
        info = _parse(
            tmp_path,
            """\
            import numpy as np

            def noise(n):
                return np.random.rand(n)  # repro-lint: disable=bits-unpriced-payload
            """,
        )
        _only(check_rng_discipline(info), "rng-module-call")

    def test_file_suppression(self, tmp_path):
        info = _parse(
            tmp_path,
            """\
            # repro-lint: disable-file=rng-stdlib-random
            import random

            def roll():
                return random.random()
            """,
        )
        assert check_rng_discipline(info) == []


class TestParseError:
    def test_syntax_error_becomes_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        result = parse_module(path, display_path="broken.py")
        assert isinstance(result, Finding)
        assert result.rule == "parse-error"


class TestRealTree:
    def test_run_lint_over_repo_is_clean(self):
        report = run_lint(project_root=REPO_ROOT)
        assert report.files_scanned > 50
        assert report.sorted_findings() == []
        assert report.ok

    def test_every_rule_id_is_documented(self):
        for rule, description in RULES.items():
            assert rule == rule.lower()
            assert description


class TestCli:
    def _run(self, *args: str, cwd: Path | None = None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        return subprocess.run(
            [sys.executable, "-m", "repro", "lint", *args],
            capture_output=True,
            text=True,
            env=env,
            cwd=cwd or REPO_ROOT,
        )

    @pytest.fixture()
    def dirty_dir(self, tmp_path):
        (tmp_path / "bad.py").write_text("import random\n")
        return tmp_path

    def test_clean_dir_exits_zero(self, tmp_path):
        (tmp_path / "good.py").write_text("X = 1\n")
        proc = self._run(str(tmp_path), "--project-root", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert "0 findings" in proc.stdout

    def test_findings_exit_one_with_json_schema(self, dirty_dir):
        proc = self._run(
            str(dirty_dir), "--project-root", str(dirty_dir), "--format=json"
        )
        assert proc.returncode == 1, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["version"] == 1
        assert payload["files_scanned"] == 1
        assert payload["counts"] == {"rng-stdlib-random": 1}
        (finding,) = payload["findings"]
        assert finding["rule"] == "rng-stdlib-random"
        assert finding["path"] == "bad.py"
        assert finding["line"] == 1

    def test_list_rules(self):
        proc = self._run("--list-rules")
        assert proc.returncode == 0, proc.stderr
        for rule in RULES:
            assert rule in proc.stdout
