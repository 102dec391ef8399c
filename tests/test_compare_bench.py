"""Tests for the cross-PR perf gate (ISSUE 7 satellite: one-sided metrics).

The gate must fail only on real regressions of pipelines measured in *both*
artifacts; sections present in just one (a new bench surface like E17, or a
retired one) are notices — otherwise the first PR adding a surface could
never land.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from compare_bench import (  # noqa: E402
    attribute,
    compare,
    main,
    walk_mb,
    walk_phases,
    walk_qps,
    walk_seconds,
)


OLD = {
    "e13": {"apsp_seconds": 1.0, "cuts": [{"scenario": "a", "seconds": 2.0}]},
    "e16": {"sweep_seconds": 0.5},
    "legacy": {"old_pipeline_seconds": 3.0},
}


class TestWalkSeconds:
    def test_flattens_nested_and_list_leaves(self):
        secs = walk_seconds(OLD)
        assert secs["e13.apsp_seconds"] == 1.0
        assert secs["e13.cuts[scenario=a].seconds"] == 2.0
        assert len(secs) == 4

    def test_identity_labels_survive_reordering(self):
        a = {"rows": [{"scenario": "x", "seconds": 1.0}, {"scenario": "y", "seconds": 2.0}]}
        b = {"rows": [{"scenario": "y", "seconds": 2.0}, {"scenario": "x", "seconds": 1.0}]}
        assert walk_seconds(a) == walk_seconds(b)

    def test_non_seconds_keys_ignored(self):
        assert walk_seconds({"rounds": 9, "bits_total": 100}) == {}


class TestOneSidedMetrics:
    def test_new_surface_is_a_notice_not_a_failure(self):
        new = dict(OLD, e17={"tournament_seconds": 9.9})
        regressions, notes = compare(OLD, new, threshold=2.0, min_seconds=0.05)
        assert regressions == []
        assert any(n.startswith("new: e17.tournament_seconds") for n in notes)

    def test_retired_surface_is_a_notice_not_a_failure(self):
        new = {k: v for k, v in OLD.items() if k != "legacy"}
        regressions, notes = compare(OLD, new, threshold=2.0, min_seconds=0.05)
        assert regressions == []
        assert any(n.startswith("retired: legacy.old_pipeline_seconds") for n in notes)

    def test_disjoint_artifacts_never_gate(self):
        regressions, notes = compare(
            {"a": {"x_seconds": 1.0}}, {"b": {"y_seconds": 50.0}},
            threshold=2.0, min_seconds=0.05,
        )
        assert regressions == []
        assert len(notes) == 2  # one retired, one new


class TestRegressionGate:
    def test_real_regression_fails(self):
        new = json.loads(json.dumps(OLD))
        new["e13"]["apsp_seconds"] = 5.0
        regressions, _ = compare(OLD, new, threshold=2.0, min_seconds=0.05)
        assert len(regressions) == 1 and "apsp_seconds" in regressions[0]

    def test_noise_floor_absorbs_tiny_deltas(self):
        old = {"x_seconds": 0.001}
        new = {"x_seconds": 0.01}  # 10x but only +9ms
        regressions, _ = compare(old, new, threshold=2.0, min_seconds=0.05)
        assert regressions == []

    def test_within_threshold_passes(self):
        new = json.loads(json.dumps(OLD))
        new["e16"]["sweep_seconds"] = 0.9  # 1.8x < 2x
        regressions, _ = compare(OLD, new, threshold=2.0, min_seconds=0.05)
        assert regressions == []


class TestThroughputFloor:
    """ISSUE 9 satellite: *qps leaves gate downward (E18 batched throughput)."""

    OLD = {"e18": {"e18a": {"grid_qps": 1000.0},
                   "curve": [{"batch": 100, "qps": 20.0}]}}

    def test_walk_qps_flattens_with_identity_labels(self):
        qps = walk_qps(self.OLD)
        assert qps == {"e18.e18a.grid_qps": 1000.0,
                       "e18.curve[batch=100].qps": 20.0}

    def test_throughput_drop_beyond_threshold_fails(self):
        new = {"e18": {"e18a": {"grid_qps": 400.0},
                       "curve": [{"batch": 100, "qps": 20.0}]}}
        regressions, _ = compare(self.OLD, new, threshold=2.0, min_seconds=0.05)
        assert len(regressions) == 1 and "grid_qps" in regressions[0]

    def test_throughput_within_threshold_passes(self):
        new = {"e18": {"e18a": {"grid_qps": 600.0},
                       "curve": [{"batch": 100, "qps": 11.0}]}}
        regressions, _ = compare(self.OLD, new, threshold=2.0, min_seconds=0.05)
        assert regressions == []

    def test_throughput_gain_is_never_a_regression(self):
        new = {"e18": {"e18a": {"grid_qps": 9000.0},
                       "curve": [{"batch": 100, "qps": 500.0}]}}
        regressions, _ = compare(self.OLD, new, threshold=2.0, min_seconds=0.05)
        assert regressions == []

    def test_one_sided_qps_is_a_notice(self):
        regressions, notes = compare(
            self.OLD, {"e18": {}}, threshold=2.0, min_seconds=0.05
        )
        assert regressions == []
        assert sum(n.startswith("retired:") for n in notes) == 2
        regressions, notes = compare(
            {}, self.OLD, threshold=2.0, min_seconds=0.05
        )
        assert regressions == []
        assert sum(n.startswith("new:") for n in notes) == 2

    def test_qps_gate_exit_code(self, tmp_path):
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"grid_qps": 100.0}))
        new = tmp_path / "new.json"
        new.write_text(json.dumps({"grid_qps": 10.0}))
        assert main(["--old", str(old), "--new", str(new)]) == 1


class TestPeakMemoryGate:
    """*_mb leaves (E13d's per-row peak RSS) gate upward, like wall clocks."""

    OLD = {"e13d": [{"n": 1000, "peak_rss_mb": 100.0, "fast_seconds": 1.0}]}

    @staticmethod
    def _with_peak(mb):
        return {"e13d": [{"n": 1000, "peak_rss_mb": mb, "fast_seconds": 1.0}]}

    def test_walk_mb_flattens_with_identity_labels(self):
        assert walk_mb(self.OLD) == {"e13d[n=1000].peak_rss_mb": 100.0}
        assert walk_seconds(self.OLD) == {"e13d[n=1000].fast_seconds": 1.0}

    def test_memory_regression_fails(self):
        regressions, _ = compare(
            self.OLD, self._with_peak(250.0), threshold=2.0, min_seconds=0.05
        )
        assert len(regressions) == 1
        assert "peak_rss_mb: 100.0 MB -> 250.0 MB" in regressions[0]

    def test_memory_within_threshold_or_gain_passes(self):
        for mb in (190.0, 40.0):
            regressions, _ = compare(
                self.OLD, self._with_peak(mb), threshold=2.0, min_seconds=0.05
            )
            assert regressions == []

    def test_new_memory_leaf_is_a_notice(self):
        old = {"e13d": [{"n": 1000, "fast_seconds": 1.0}]}
        regressions, notes = compare(old, self.OLD, threshold=2.0, min_seconds=0.05)
        assert regressions == []
        assert "new: e13d[n=1000].peak_rss_mb = 100.0 MB" in notes
        regressions, notes = compare(self.OLD, old, threshold=2.0, min_seconds=0.05)
        assert regressions == []
        assert any(n.startswith("retired: e13d[n=1000].peak_rss_mb") for n in notes)

    def test_memory_gate_exit_code(self, tmp_path):
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"peak_rss_mb": 100.0}))
        new = tmp_path / "new.json"
        new.write_text(json.dumps({"peak_rss_mb": 300.0}))
        assert main(["--old", str(old), "--new", str(new)]) == 1


class TestPhaseAttribution:
    """ISSUE 10 satellite: a wall-clock regression names the phase that
    moved, using the ``*phases`` breakdowns the traced benches record."""

    OLD = {
        "e13_quick": {
            "vec_seconds": 0.10,
            "vec_phases": {"pipeline": 0.04, "tree_packing": 0.03},
        }
    }

    def test_walk_phases_flattens_breakdown_dicts(self):
        phases = walk_phases(self.OLD)
        assert phases == {
            "e13_quick.vec_phases": {"pipeline": 0.04, "tree_packing": 0.03}
        }

    def test_walk_phases_follows_list_identity_labels(self):
        node = {"e13d": [{"n": 80, "fast_phases": {"upcast": 1.0}}]}
        assert walk_phases(node) == {
            "e13d[n=80].fast_phases": {"upcast": 1.0}
        }

    def test_regression_is_attributed_to_the_biggest_mover(self):
        new = {
            "e13_quick": {
                "vec_seconds": 0.50,
                "vec_phases": {"pipeline": 0.42, "tree_packing": 0.04},
            }
        }
        regressions, _ = compare(self.OLD, new, threshold=2.0, min_seconds=0.05)
        # The total names its biggest mover, and that phase, which grew
        # 10x by 0.38 s, fails the gate on its own line as well.
        assert len(regressions) == 2
        assert "phase 'pipeline' moved most" in regressions[0]
        assert "+0.380s" in regressions[0]
        assert regressions[1].startswith("e13_quick.vec_phases[pipeline]: 0.040s -> 0.420s")

    def test_stem_matching_prefers_the_sibling_breakdown(self):
        old = {
            "row": {
                "fast_seconds": 0.1, "fast_phases": {"a": 0.1},
                "text_phases": {"b": 0.1},
            }
        }
        new = {
            "row": {
                "fast_seconds": 1.0, "fast_phases": {"a": 1.0},
                "text_phases": {"b": 9.9},
            }
        }
        blame = attribute("row.fast_seconds", walk_phases(old), walk_phases(new))
        assert "'a'" in blame

    def test_no_breakdown_means_no_attribution(self):
        old = {"x_seconds": 0.1}
        new = {"x_seconds": 1.0}
        regressions, _ = compare(old, new, threshold=2.0, min_seconds=0.05)
        assert len(regressions) == 1
        assert "phase" not in regressions[0]

    def test_one_sided_breakdown_is_skipped(self):
        new = {
            "e13_quick": {"vec_seconds": 0.50, "vec_phases": {"pipeline": 0.42}}
        }
        old = {"e13_quick": {"vec_seconds": 0.10}}
        regressions, _ = compare(old, new, threshold=2.0, min_seconds=0.05)
        assert len(regressions) == 1 and "moved most" not in regressions[0]

    def test_phase_doubling_under_a_flat_total_fails(self):
        """Packing got 0.3 s faster and the pipeline 0.3 s slower: the total
        stays at 1.0 s, and the pipeline phase, more than doubled, fails
        alone."""
        old = {"row": {"fast_seconds": 1.0, "fast_phases": {"pipeline": 0.2, "packing": 0.8}}}
        new = {"row": {"fast_seconds": 1.0, "fast_phases": {"pipeline": 0.5, "packing": 0.5}}}
        regressions, _ = compare(old, new, threshold=2.0, min_seconds=0.05)
        assert regressions == [
            "row.fast_phases[pipeline]: 0.200s -> 0.500s (2.5x > 2.0x gate)"
        ]

    def test_phase_doubling_under_the_floor_passes(self):
        """A phase that triples by 0.02 s stays under the 0.05 s noise floor."""
        old = {"row": {"fast_seconds": 1.0, "fast_phases": {"upcast": 0.01, "packing": 0.99}}}
        new = {"row": {"fast_seconds": 1.0, "fast_phases": {"upcast": 0.03, "packing": 0.97}}}
        assert compare(old, new, threshold=2.0, min_seconds=0.05) == ([], [])

    def test_shrinking_phases_report_no_grower(self):
        old_p = {"p.phases": {"a": 1.0}}
        new_p = {"p.phases": {"a": 0.5}}
        assert "no recorded phase grew" in attribute("p.x_seconds", old_p, new_p)


class TestMainEntry:
    def test_missing_old_artifact_bootstraps_clean(self, tmp_path, capsys):
        new = tmp_path / "new.json"
        new.write_text(json.dumps(OLD))
        rc = main(["--old", str(tmp_path / "absent.json"), "--new", str(new)])
        assert rc == 0
        assert "skipping gate" in capsys.readouterr().out

    def test_unreadable_old_artifact_bootstraps_clean(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        old.write_text("{not json")
        new = tmp_path / "new.json"
        new.write_text(json.dumps(OLD))
        assert main(["--old", str(old), "--new", str(new)]) == 0
        assert "unreadable" in capsys.readouterr().out

    def test_missing_new_artifact_fails(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        old.write_text(json.dumps(OLD))
        rc = main(["--old", str(old), "--new", str(tmp_path / "absent.json")])
        assert rc == 1

    @pytest.mark.parametrize("factor,expected_rc", [(1.5, 0), (3.0, 1)])
    def test_gate_exit_codes(self, tmp_path, factor, expected_rc):
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"x_seconds": 1.0}))
        new = tmp_path / "new.json"
        new.write_text(json.dumps({"x_seconds": factor}))
        rc = main(["--old", str(old), "--new", str(new)])
        assert rc == expected_rc
