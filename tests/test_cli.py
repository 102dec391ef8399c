"""Tests for the command-line interface."""

import pytest

from repro.cli import main, parse_graph_spec
from repro.graphs import edge_connectivity


class TestGraphSpecParser:
    def test_reg(self):
        g = parse_graph_spec("reg:n=40,d=4,seed=1")
        assert g.n == 40 and (g.degrees() == 4).all()

    def test_thick(self):
        g = parse_graph_spec("thick:groups=6,size=3")
        assert g.n == 18 and edge_connectivity(g) == 6

    def test_hypercube(self):
        assert parse_graph_spec("hypercube:dim=4").n == 16

    def test_torus(self):
        assert parse_graph_spec("torus:rows=3,cols=4").n == 12

    def test_cliques(self):
        g = parse_graph_spec("cliques:num=3,size=5,bridge=2")
        assert edge_connectivity(g) == 2

    def test_gk13(self):
        assert parse_graph_spec("gk13:length=8,lam=3").n == 24

    def test_barbell(self):
        g = parse_graph_spec("barbell:clique=5,bridge=2")
        assert edge_connectivity(g) == 1

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            parse_graph_spec("pentagram:n=5")

    def test_missing_param(self):
        with pytest.raises(ValueError):
            parse_graph_spec("reg:n=40")

    def test_malformed_fragment(self):
        with pytest.raises(ValueError):
            parse_graph_spec("reg:n40")


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "hypercube:dim=4"]) == 0
        out = capsys.readouterr().out
        assert "n=16" in out and "lambda=4" in out

    def test_broadcast_fast(self, capsys):
        rc = main(
            ["broadcast", "thick:groups=8,size=6", "-k", "48", "--C", "1.5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "total rounds:" in out and "pipeline" in out

    def test_broadcast_textbook(self, capsys):
        rc = main(
            ["broadcast", "hypercube:dim=5", "-k", "20", "--algorithm", "textbook"]
        )
        assert rc == 0
        assert "textbook" in capsys.readouterr().out

    def test_broadcast_unknown_lambda(self, capsys):
        rc = main(
            ["broadcast", "thick:groups=8,size=6", "-k", "24",
             "--algorithm", "unknown-lambda", "--C", "1.5"]
        )
        assert rc == 0
        assert "lambda_search" in capsys.readouterr().out

    def test_packing(self, capsys):
        rc = main(["packing", "thick:groups=8,size=8", "--C", "1.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "edge_disjoint=True" in out

    def test_apsp_unweighted(self, capsys):
        rc = main(["apsp", "thick:groups=8,size=8", "--C", "1.5"])
        assert rc == 0
        assert "envelope_ok=True" in capsys.readouterr().out

    def test_apsp_weighted(self, capsys):
        rc = main(
            ["apsp", "thick:groups=8,size=8", "--weighted", "--spanner-k", "2",
             "--C", "1.5"]
        )
        assert rc == 0
        assert "ok=True" in capsys.readouterr().out

    def test_cuts(self, capsys):
        rc = main(["cuts", "thick:groups=8,size=10", "--eps", "0.5", "--C", "1.5"])
        assert rc == 0
        assert "cut error" in capsys.readouterr().out

    def test_error_path_returns_one(self, capsys):
        assert main(["info", "pentagram:n=5"]) == 1
        assert "error:" in capsys.readouterr().err


class TestResilienceCommand:
    def test_help(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["resilience", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--adversary" in out and "targeted-cut" in out and "--backend" in out

    def test_clean_run_full_coverage(self, capsys):
        rc = main(["resilience", "thick:groups=8,size=6", "-k", "24", "--C", "1.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fully delivered: 24/24" in out and "min coverage: 100.00%" in out

    def test_dead_tree_backends_print_identically(self, capsys):
        args = ["resilience", "thick:groups=8,size=6", "-k", "24", "-r", "2",
                "--adversary", "dead-tree", "--C", "1.5"]
        assert main(args) == 0
        sim_out = capsys.readouterr().out
        assert main(args + ["--backend", "vectorized"]) == 0
        vec_out = capsys.readouterr().out
        strip = lambda s: [l for l in s.splitlines() if not l.startswith("backend")]  # noqa: E731
        assert strip(sim_out) == strip(vec_out)
        assert "fully delivered: 24/24" in sim_out  # r=2 rides out the dead tree

    def test_loss_adversary(self, capsys):
        rc = main(["resilience", "thick:groups=8,size=6", "-k", "24",
                   "--adversary", "loss", "--drop-rate", "0.05", "--C", "1.5",
                   "--fault-seed", "3", "--backend", "vectorized"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "adversary: loss" in out and "deliveries dropped:" in out

    def test_invalid_drop_rate_is_an_error(self, capsys):
        rc = main(["resilience", "thick:groups=8,size=6", "-k", "8",
                   "--adversary", "loss", "--drop-rate", "1.5", "--C", "1.5"])
        assert rc == 1
        assert "drop_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("tree", ["9", "-1", "2"])
    def test_dead_tree_index_out_of_range_is_an_error(self, capsys, tree):
        """On a 2-tree packing, ``--tree`` outside [0, 2) prints one error
        line: no IndexError traceback, and -1 does not kill tree 1."""
        rc = main(["resilience", "thick:groups=8,size=6", "-k", "8", "--parts", "2",
                   "--adversary", "dead-tree", f"--tree={tree}",
                   "--backend", "vectorized"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: tree index must be an integer in [0, 2), got {tree}\n"
        )

    def test_list_scenarios(self, capsys):
        assert main(["resilience", "--list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("none", "dead-tree", "mobile", "loss", "targeted-cut"):
            assert name in out

    def test_unknown_scenario_is_usage_error(self, capsys):
        rc = main(["resilience", "thick:groups=4,size=4", "-k", "4",
                   "--adversary", "warp"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'warp'" in err and "--list-scenarios" in err

    def test_missing_graph_is_usage_error(self, capsys):
        assert main(["resilience"]) == 2
        assert "graph spec is required" in capsys.readouterr().err

    def test_roots_option_spreads_the_packing(self, capsys):
        rc = main(["resilience", "thick:groups=8,size=6", "-k", "24",
                   "--roots", "spread", "--C", "1.5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "roots:" in out and "min coverage: 100.00%" in out


class TestTournamentCommand:
    def test_list_scenarios(self, capsys):
        assert main(["tournament", "--list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "targeted-cut" in out and "default defenses" in out

    def test_missing_graph_is_usage_error(self, capsys):
        assert main(["tournament"]) == 2
        assert "graph spec is required" in capsys.readouterr().err

    def test_unknown_adversary_is_usage_error(self, capsys):
        rc = main(["tournament", "thick:groups=4,size=4",
                   "--adversaries", "zero-day"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "zero-day" in err and "--list-scenarios" in err

    def test_small_grid_table(self, capsys):
        rc = main(["tournament", "thick:groups=6,size=5", "-k", "20",
                   "--parts", "2", "--adversaries", "dead-tree,loss",
                   "--defenses", "shared-r1,spread-r2",
                   "--backend", "vectorized"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "budget=10" in out
        assert "best vs dead-tree: spread-r2" in out
        assert "rebuild" in out  # shared-r1 buys back the dead tree

    def test_json_output_round_trips(self, capsys):
        import json

        rc = main(["tournament", "thick:groups=6,size=5", "-k", "12",
                   "--parts", "2", "--adversaries", "loss",
                   "--defenses", "shared-r1", "--backend", "vectorized",
                   "--json"])
        assert rc == 0
        pay = json.loads(capsys.readouterr().out)
        assert pay["n"] == 30 and pay["adversaries"] == ["loss"]
        assert pay["attacks"]["loss"]["type"] == "loss"
        assert len(pay["cells"]) == 1
