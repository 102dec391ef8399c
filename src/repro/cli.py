"""Command-line interface: ``python -m repro <command> ...``.

Gives the library a shell-usable surface for quick experiments:

* ``info``       — graph family parameters (n, m, δ, λ, D),
* ``broadcast``  — run a k-broadcast (fast / textbook / combined /
  unknown-lambda) and print the certified per-phase round ledger,
* ``packing``    — build and report a Theorem 2 tree packing,
* ``apsp``       — the Theorem 4 or Theorem 5 distance pipeline,
* ``cuts``       — the Theorem 7 all-cuts pipeline,
* ``resilience`` — a redundant broadcast under an adversary scenario
  (Section 1.2 / FP23 flavor) with the per-message delivery report.

Graph specs are ``family:key=value,...`` — e.g. ``reg:n=200,d=16,seed=1``,
``thick:groups=12,size=10``, ``hypercube:dim=8``, ``torus:rows=8,cols=9``,
``cliques:num=4,size=12,bridge=3``, ``gk13:length=32,lam=16``,
``barbell:clique=10,bridge=2``.
"""

from __future__ import annotations

import argparse
import sys

from repro.graphs import (
    Graph,
    barbell,
    diameter,
    edge_connectivity,
    ghaffari_kuhn_family,
    hypercube,
    path_of_cliques,
    random_regular,
    random_weights,
    thick_cycle,
    torus_grid,
)
from repro.util.errors import ReproError

__all__ = ["parse_graph_spec", "main"]


def _kwargs(spec: str) -> dict[str, int]:
    out: dict[str, int] = {}
    if not spec:
        return out
    for part in spec.split(","):
        if "=" not in part:
            raise ValueError(f"bad spec fragment {part!r} (expected key=value)")
        key, value = part.split("=", 1)
        out[key.strip()] = int(value)
    return out


def parse_graph_spec(spec: str) -> Graph:
    """Build a graph from a ``family:key=value,...`` spec string."""
    family, _, rest = spec.partition(":")
    kw = _kwargs(rest)
    try:
        if family == "reg":
            return random_regular(kw["n"], kw["d"], seed=kw.get("seed", 0))
        if family == "thick":
            return thick_cycle(kw["groups"], kw["size"])
        if family == "hypercube":
            return hypercube(kw["dim"])
        if family == "torus":
            return torus_grid(kw["rows"], kw["cols"])
        if family == "cliques":
            return path_of_cliques(kw["num"], kw["size"], kw["bridge"])
        if family == "gk13":
            return ghaffari_kuhn_family(kw["length"], kw["lam"])
        if family == "barbell":
            return barbell(kw["clique"], kw.get("bridge", 1))
    except KeyError as err:
        raise ValueError(f"graph spec {spec!r} is missing parameter {err}") from None
    raise ValueError(
        f"unknown graph family {family!r}; "
        "use reg | thick | hypercube | torus | cliques | gk13 | barbell"
    )


def _cmd_info(args) -> int:
    g = parse_graph_spec(args.graph)
    lam = edge_connectivity(g)
    print(f"n={g.n} m={g.m} delta={g.min_degree()} lambda={lam} D={diameter(g)}")
    return 0


def _cmd_broadcast(args) -> int:
    from repro.core import (
        broadcast_unknown_lambda,
        combined_broadcast,
        fast_broadcast,
        textbook_broadcast,
        uniform_random_placement,
    )

    g = parse_graph_spec(args.graph)
    placement = uniform_random_placement(g.n, args.k, seed=args.seed)
    if args.algorithm == "textbook":
        res = textbook_broadcast(g, placement, backend=args.backend)
    elif args.algorithm == "fast":
        res = fast_broadcast(g, placement, C=args.C, seed=args.seed, backend=args.backend)
    elif args.algorithm == "combined":
        res = combined_broadcast(g, placement, C=args.C, seed=args.seed, backend=args.backend)
    else:
        res, _search = broadcast_unknown_lambda(
            g, placement, seed=args.seed, C=args.C, backend=args.backend
        )
    print(f"algorithm: {res.algorithm}")
    print(f"backend: {args.backend}")
    print(f"n={res.n} k={res.k} trees={res.parts}")
    for phase, rounds in res.phases.items():
        print(f"  {phase:<18} {rounds}")
    print(f"total rounds: {res.rounds}")
    print(f"max edge congestion: {res.max_congestion}")
    return 0


def _cmd_packing(args) -> int:
    from repro.core import build_packing_with_retry, num_parts

    g = parse_graph_spec(args.graph)
    lam = edge_connectivity(g)
    parts = args.parts if args.parts else num_parts(lam, g.n, args.C)
    packing, attempts = build_packing_with_retry(
        g, parts, seed=args.seed, distributed=True, backend=args.backend,
        roots=args.roots,
    )
    print(f"lambda={lam} parts={parts} attempts={attempts}")
    print(f"roots={args.roots} {packing.roots if parts <= 8 else ''}")
    print(f"edge_disjoint={packing.is_edge_disjoint} congestion={packing.congestion}")
    print(f"max_depth={packing.max_depth} max_diameter={packing.max_diameter}")
    print(f"construction_rounds={packing.construction_rounds}")
    return 0


def _cmd_apsp(args) -> int:
    g = parse_graph_spec(args.graph)
    if args.weighted:
        from repro.apsp import approx_apsp_weighted, check_weighted_stretch, corollary1_k

        gw = random_weights(g, seed=args.seed)
        k = args.spanner_k or corollary1_k(g.n)
        res = approx_apsp_weighted(
            gw, k=k, C=args.C, seed=args.seed, backend=args.backend
        )
        ok, worst = check_weighted_stretch(gw, res.estimate, k)
        print(f"weighted APSP: k={k} stretch_bound={2*k-1} measured={worst:.2f} ok={ok}")
        print(f"spanner edges broadcast: {res.messages_broadcast}")
    else:
        from repro.apsp import approx_apsp_unweighted, check_32_approximation

        res = approx_apsp_unweighted(
            g, C=args.C, seed=args.seed, backend=args.backend
        )
        ok, worst = check_32_approximation(g, res.estimate)
        print(f"(3,2)-approx APSP: envelope_ok={ok} worst_mult={worst:.2f}")
        print(f"clusters: {res.k_clusters}")
    print(f"backend: {args.backend}")
    print(f"simulated rounds: {res.simulated_rounds}")
    print(f"charged rounds:   {res.charged_rounds}")
    print(f"total rounds:     {res.rounds}")
    return 0


def _cmd_cuts(args) -> int:
    from repro.cuts import approx_all_cuts, evaluate_cut_quality

    g = parse_graph_spec(args.graph)
    res = approx_all_cuts(
        g, eps=args.eps, C=args.C, seed=args.seed, tau=args.tau,
        backend=args.backend,
    )
    quality = evaluate_cut_quality(g, res.sparsifier.sparsifier, seed=args.seed)
    print(f"sparsifier: {res.sparsifier.m} of {g.m} edges")
    print(f"backend: {args.backend}")
    print(f"rounds: {res.rounds} (simulated {res.simulated_rounds})")
    print(
        f"cut error: max={quality['max_rel_error']:.3f} "
        f"mean={quality['mean_rel_error']:.3f} over {quality['cuts']:.0f} cuts "
        f"(target eps={args.eps})"
    )
    return 0


def _scenario_none(args, g):
    """fault-free baseline (only --drop-rate, if given, applies)"""
    return None


def _scenario_dead_tree(args, g):
    """kill one whole packed tree (--tree) permanently"""
    from repro.congest import StaticSaboteur

    return StaticSaboteur(tree_index=args.tree)


def _scenario_mobile(args, g):
    """sweeping round-scoped adversary: --budget edges per delivery round"""
    from repro.congest import MobileAdversary

    return MobileAdversary.sweeping(
        range(g.m), budget=max(1, args.budget), rounds=args.mobile_rounds
    )


def _scenario_loss(args, g):
    """i.i.d. per-delivery loss at --drop-rate"""
    from repro.congest import RandomLoss

    return RandomLoss(args.drop_rate)


def _scenario_targeted_cut(args, g):
    """kill the lightest approximate cut found via Theorem 7 (--budget edges)"""
    from repro.congest import TargetedCutAdversary

    return TargetedCutAdversary(
        eps=args.eps,
        budget=args.budget or None,
        seed=args.seed,
        backend=args.backend,
    )


#: ``repro resilience`` scenario registry: name -> builder(args, graph).
_SCENARIOS = {
    "none": _scenario_none,
    "dead-tree": _scenario_dead_tree,
    "mobile": _scenario_mobile,
    "loss": _scenario_loss,
    "targeted-cut": _scenario_targeted_cut,
}


def _print_scenarios() -> None:
    width = max(len(s) for s in _SCENARIOS)
    for name, builder in _SCENARIOS.items():
        print(f"{name:<{width}}  {builder.__doc__}")


def _cmd_resilience(args) -> int:
    from repro.core import (
        build_packing_with_retry,
        num_parts,
        redundant_broadcast,
        uniform_random_placement,
    )

    if args.list_scenarios:
        _print_scenarios()
        return 0
    if args.graph is None:
        print("error: a graph spec is required (or use --list-scenarios)",
              file=sys.stderr)
        return 2
    if args.adversary not in _SCENARIOS:
        print(
            f"error: unknown scenario {args.adversary!r}; known scenarios: "
            f"{', '.join(_SCENARIOS)} (see --list-scenarios)",
            file=sys.stderr,
        )
        return 2
    g = parse_graph_spec(args.graph)
    lam = edge_connectivity(g)
    parts = args.parts if args.parts else num_parts(lam, g.n, args.C)
    packing, _ = build_packing_with_retry(
        g, parts, seed=args.seed, distributed=False, backend=args.backend,
        roots=args.roots,
    )
    placement = uniform_random_placement(g.n, args.k, seed=args.seed)

    adversary = _SCENARIOS[args.adversary](args, g)
    rep = redundant_broadcast(
        g,
        placement,
        packing,
        redundancy=args.redundancy,
        drop_rate=args.drop_rate if args.adversary != "loss" else 0.0,
        adversary=adversary,
        seed=args.seed,
        fault_seed=args.fault_seed,
        backend=args.backend,
    )
    print(f"adversary: {args.adversary}  redundancy: {rep.redundancy}")
    print(f"backend: {args.backend}")
    print(f"roots: {args.roots} {packing.roots if packing.size <= 8 else ''}")
    print(f"n={g.n} lambda={lam} trees={packing.size} k={rep.k}")
    print(f"rounds: {rep.rounds}")
    print(f"deliveries dropped: {rep.dropped_messages}")
    print(f"fully delivered: {rep.fully_delivered}/{rep.k}")
    print(f"min coverage: {rep.min_coverage:.2%}")
    return 0


def _cmd_tournament(args) -> int:
    import json

    from repro.congest.tournament import (
        DEFAULT_ADVERSARIES,
        DEFAULT_DEFENSES,
        SCENARIOS,
        run_tournament,
    )

    if args.list_scenarios:
        width = max(len(s) for s in SCENARIOS)
        for name, (doc, _fn) in SCENARIOS.items():
            print(f"{name:<{width}}  {doc}")
        print(f"default defenses: {', '.join(DEFAULT_DEFENSES)}")
        return 0
    if args.graph is None:
        print("error: a graph spec is required (or use --list-scenarios)",
              file=sys.stderr)
        return 2
    adversaries = (
        args.adversaries.split(",") if args.adversaries else list(DEFAULT_ADVERSARIES)
    )
    unknown = [a for a in adversaries if a not in SCENARIOS]
    if unknown:
        print(
            f"error: unknown scenario(s) {', '.join(unknown)}; known: "
            f"{', '.join(SCENARIOS)} (see --list-scenarios)",
            file=sys.stderr,
        )
        return 2
    defenses = args.defenses.split(",") if args.defenses else list(DEFAULT_DEFENSES)
    g = parse_graph_spec(args.graph)
    res = run_tournament(
        g,
        k=args.k,
        parts=args.parts,
        budget=args.budget or None,
        adversaries=adversaries,
        defenses=defenses,
        seed=args.seed,
        backend=args.backend,
        mobile_rounds=args.mobile_rounds,
    )
    if args.json:
        print(json.dumps(res.to_payload(), indent=2))
        return 0
    print(f"tournament: n={res.n} k={res.k} trees={res.parts} "
          f"budget={res.budget} backend={res.backend}")
    header = (f"{'adversary':<13} {'defense':<13} {'min_cov':>8} {'mean':>7} "
              f"{'full':>9} {'rounds':>7} {'bits':>10} {'repaired':>9} {'repair':>7}")
    print(header)
    for c in res.cells:
        repair = "rebuild" if c.rebuilt else (f"reroot:{c.rerooted}" if c.rerooted else "-")
        print(f"{c.adversary:<13} {c.defense:<13} {c.min_coverage:>8.3f} "
              f"{c.mean_coverage:>7.3f} {c.fully_delivered:>5}/{c.k:<3} "
              f"{c.rounds:>7} {c.total_bits:>10} "
              f"{c.repaired_min_coverage:>9.3f} {repair:>7}")
    for name in res.adversaries:
        best = res.best_defense(name)
        print(f"best vs {name}: {best.defense} "
              f"(repaired min coverage {best.repaired_min_coverage:.3f})")
    return 0


def _cmd_trace(args) -> int:
    from repro import obs

    data = obs.load_trace(args.trace_file)
    print(obs.format_report(data, top_counters=args.top))
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import RULES, run_lint

    if args.list_rules:
        width = max(len(r) for r in RULES)
        for rule, desc in sorted(RULES.items()):
            print(f"{rule:<{width}}  {desc}")
        return 0
    report = run_lint(args.paths or None, project_root=args.project_root)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_text())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fast Broadcast in Highly Connected Networks — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("graph", help="graph spec, e.g. thick:groups=12,size=10")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--C", type=float, default=2.0, help="Theorem 2 constant")

    def trace_opt(p):
        p.add_argument(
            "--trace",
            metavar="PATH",
            default=None,
            help="record phase spans + kernel counters while the command "
            "runs and write the artifact to PATH (.jsonl = JSONL, "
            "anything else = Chrome trace-event JSON for Perfetto); "
            "inspect it with `repro trace PATH`",
        )

    def backend_opt(p):
        p.add_argument(
            "--backend",
            choices=["simulator", "vectorized"],
            default="simulator",
            help="simulator = certified CONGEST execution (per-node "
            "programs); vectorized = bit-identical results — same "
            "estimates/sparsifiers, same round ledgers — via the numpy "
            "fast-path engine, orders of magnitude faster",
        )

    p = sub.add_parser("info", help="graph family parameters")
    p.add_argument("graph")
    trace_opt(p)
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("broadcast", help="run a k-broadcast")
    common(p)
    backend_opt(p)
    p.add_argument("-k", type=int, required=True, help="number of messages")
    p.add_argument(
        "--algorithm",
        choices=["fast", "textbook", "combined", "unknown-lambda"],
        default="fast",
    )
    trace_opt(p)
    p.set_defaults(fn=_cmd_broadcast)

    def roots_opt(p):
        p.add_argument(
            "--roots",
            default="shared",
            help="root-assignment policy: shared (historical single root) | "
            "spread (distinct evenly spaced root per tree) | cut-aware "
            "(roots steered away from Theorem 7's light cuts)",
        )

    p = sub.add_parser("packing", help="build a Theorem 2 tree packing")
    common(p)
    backend_opt(p)
    roots_opt(p)
    p.add_argument("--parts", type=int, default=0)
    trace_opt(p)
    p.set_defaults(fn=_cmd_packing)

    p = sub.add_parser("apsp", help="approximate APSP (Theorem 4 / 5)")
    common(p)
    backend_opt(p)
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--spanner-k", type=int, default=0)
    trace_opt(p)
    p.set_defaults(fn=_cmd_apsp)

    p = sub.add_parser("cuts", help="all-cuts approximation (Theorem 7)")
    common(p)
    backend_opt(p)
    p.add_argument("--eps", type=float, default=0.4)
    p.add_argument("--tau", type=int, default=3)
    trace_opt(p)
    p.set_defaults(fn=_cmd_cuts)

    p = sub.add_parser(
        "resilience",
        help="redundant broadcast under an adversary (Section 1.2 / FP23)",
    )
    p.add_argument("graph", nargs="?", default=None,
                   help="graph spec, e.g. thick:groups=12,size=10")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--C", type=float, default=2.0, help="Theorem 2 constant")
    backend_opt(p)
    roots_opt(p)
    p.add_argument("-k", type=int, default=20, help="number of messages")
    p.add_argument("--redundancy", "-r", type=int, default=1,
                   help="trees carrying each message (1..#trees)")
    p.add_argument(
        "--adversary",
        default="none",
        help="scenario name: none | dead-tree | mobile | loss | targeted-cut "
        "(see --list-scenarios)",
    )
    p.add_argument("--list-scenarios", action="store_true",
                   help="print every scenario name with a description and exit")
    p.add_argument("--tree", type=int, default=0,
                   help="which packed tree the dead-tree saboteur kills")
    p.add_argument("--budget", type=int, default=0,
                   help="edge budget (mobile per-round / targeted-cut total)")
    p.add_argument("--mobile-rounds", type=int, default=64,
                   help="how many delivery rounds the mobile adversary acts")
    p.add_argument("--drop-rate", type=float, default=0.0,
                   help="i.i.d. per-delivery loss probability in [0, 1]")
    p.add_argument("--eps", type=float, default=0.4,
                   help="targeted-cut sparsifier accuracy")
    p.add_argument("--parts", type=int, default=0,
                   help="trees in the packing (0 = Theorem 2 default)")
    p.add_argument("--fault-seed", type=int, default=None,
                   help="fault-coin seed (defaults to --seed; independent "
                   "of the protocol RNG)")
    trace_opt(p)
    p.set_defaults(fn=_cmd_resilience)

    p = sub.add_parser(
        "tournament",
        help="round-robin every adversary against every root-policy/"
        "redundancy defense at a matched budget; scored grid",
    )
    p.add_argument("graph", nargs="?", default=None,
                   help="graph spec, e.g. thick:groups=12,size=10")
    p.add_argument("--seed", type=int, default=0)
    backend_opt(p)
    p.add_argument("-k", type=int, default=40, help="number of messages")
    p.add_argument("--parts", type=int, default=3,
                   help="trees in each defense packing")
    p.add_argument("--budget", type=int, default=0,
                   help="matched fault budget (0 = node 0's degree, the E16 "
                   "leader-degree cut)")
    p.add_argument("--adversaries", default="",
                   help="comma-separated scenario names (default: all)")
    p.add_argument("--defenses", default="",
                   help="comma-separated <policy>-r<N> entries, e.g. "
                   "shared-r1,spread-r2 (default: the standard grid)")
    p.add_argument("--mobile-rounds", type=int, default=4096,
                   help="delivery rounds the mobile adversary stays active")
    p.add_argument("--list-scenarios", action="store_true",
                   help="print scenario registry + default defenses and exit")
    p.add_argument("--json", action="store_true",
                   help="emit the full scored payload as JSON")
    trace_opt(p)
    p.set_defaults(fn=_cmd_tournament)

    p = sub.add_parser(
        "lint",
        help="static invariant checks: CONGEST legality, RNG discipline, "
        "bit accounting, backend parity",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files/directories to scan (default: src benchmarks examples "
        "under --project-root)",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument(
        "--project-root",
        default=".",
        help="anchor for display paths and the backend-parity "
        "cross-references (default: cwd)",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="print every rule id and exit"
    )
    trace_opt(p)
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "trace",
        help="report on a --trace artifact: per-phase wall-clock table "
        "plus the top counters",
    )
    p.add_argument("trace_file", help="JSONL or Chrome trace-event JSON path")
    p.add_argument("--top", type=int, default=20,
                   help="number of counters to show (default 20)")
    p.set_defaults(fn=_cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    try:
        if trace_path:
            from repro import obs

            with obs.use_tracer() as tracer:
                rc = args.fn(args)
            tracer.write(trace_path)
            return rc
        return args.fn(args)
    except (ReproError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
