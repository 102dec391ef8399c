"""Per-layer metrics of the traced run: which calls are wrapped, and how the
spans and the program's own ``repro.obs`` counters become named metrics.

Layers are named by module. A ``*_s`` metric is the self time of the
benchmark spans around calls into that layer's public functions (span
duration minus the child spans under it; a span named ``x`` feeds ``x_s``),
summed over the traced operations and divided by the number of traced
passes, so it reads in seconds per pass of the workload's mix -- except
``graphs.build_s``, which is per set-up.
Counts are per pass as well; ratios, shares and yields are plain ratios.
A layer the workload does not reach reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from spans import Target


def _kw(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _packing_hook(args, kwargs, result):
    return {
        "batch": int(_kw(args, kwargs, 8, "batch", 1)),
        "attempts": int(result[1]) if result is not None else 0,
    }


def _union_hook(args, kwargs, result):
    sizes = _kw(args, kwargs, 3, "group_sizes")
    return {"groups": len(sizes) if sizes is not None else len(_kw(args, kwargs, 1, "masks"))}


def _grid_hook(args, kwargs, result):
    return {"queries": len(list(_kw(args, kwargs, 1, "roots")))}


def _faulty_broadcast_hook(args, kwargs, result):
    return {"rounds": int(result.rounds) if result is not None else 0}


SETUP_TARGETS = [
    Target("repro.graphs.generators:thick_cycle", "graphs.build"),
    Target("repro.graphs.generators:random_regular", "graphs.build"),
    Target("repro.graphs.generators:random_weights", "graphs.build"),
]

OP_TARGETS = [
    Target("repro.graphs.graph:Graph.masked_csr", "graphs.masked_csr"),
    Target("repro.graphs.graph:Graph.disjoint_masked_csrs", "graphs.masked_csr"),
    Target("repro.engine.fastpath:vectorized_elect_leader", "prologue.elect"),
    Target("repro.primitives.leader:elect_leader", "prologue.elect"),
    Target("repro.primitives.bfs:run_bfs", "prologue.global_bfs"),
    Target("repro.engine.fastpath:vectorized_numbering", "prologue.numbering"),
    Target("repro.primitives.numbering:assign_item_numbers", "prologue.numbering"),
    Target("repro.core.tree_packing:build_packing_with_retry", "tree_packing.build", _packing_hook),
    Target("repro.core.tree_packing:build_tree_packing", "tree_packing.build"),
    Target("repro.primitives.bfs:run_parallel_bfs", "tree_packing.parallel_bfs"),
    Target("repro.engine.plane:masked_union_bfs", "plane.union_bfs", _union_hook),
    Target("repro.engine.kernels:frontier_sweep", "kernels.frontier_sweep"),
    Target("repro.engine.kernels:upcast_spans", "kernels.upcast_spans"),
    Target("repro.engine.kernels:last_send_round_spans", "kernels.last_send_round_spans"),
    Target("repro.engine.fastpath:vectorized_tree_broadcast", "fastpath.tree_broadcast"),
    Target("repro.primitives.pipeline:run_tree_broadcast", "primitives.tree_broadcast"),
    Target("repro.core.broadcast:textbook_broadcast", "broadcast.self"),
    Target("repro.core.broadcast:textbook_broadcast_batch", "broadcast.self"),
    Target("repro.core.broadcast:fast_broadcast", "broadcast.self"),
    Target("repro.core.broadcast:fast_broadcast_batch", "broadcast.self"),
    Target("repro.engine.plane:plane_sweep", "plane.sweep"),
    Target("repro.engine.faults:faulty_bfs_grid", "faults.bfs_grid", _grid_hook),
    Target("repro.engine.faults:vectorized_faulty_broadcast", "faults.broadcast", _faulty_broadcast_hook),
    # Private span-path entry points, wrapped only to tell which path a
    # vectorized_faulty_broadcast call took.
    Target("repro.engine.faults:_span_faulty_broadcast", "faults.span_path"),
    Target("repro.engine.faults:_span_faulty_broadcast_total_loss", "faults.span_path"),
    Target("repro.core.resilient:evaluate_fault_grid", "resilient.grid_self"),
    Target("repro.core.resilient:redundant_broadcast", "resilient.redundant_self"),
    Target("repro.engine.pipelines:vectorized_spanner_edges", "pipelines.spanner_edges"),
    Target("repro.engine.pipelines:assign_centers", "pipelines.assign_centers"),
    Target("repro.engine.pipelines:contract_clusters", "pipelines.contract_clusters"),
    Target("repro.apsp.clustering:build_clustering", "apsp.clustering"),
    Target("repro.apsp.prt:prt_apsp", "apsp.prt"),
    Target("repro.apsp.unweighted:approx_apsp_unweighted", "apsp.self"),
    Target("repro.apsp.spanner:baswana_sen_spanner", "apsp.self"),
    Target("repro.cuts.sparsifier:koutis_xu_sparsifier", "cuts.sparsifier"),
    Target("repro.cuts.approx:approx_all_cuts", "cuts.self"),
    Target("repro.congest.simulator:Simulator.run", "congest.simulate"),
]

# Every per-layer metric: name -> (unit, better). BENCHMARK.json lists the same.
METRICS = {
    "graphs.build_s": ("s", "lower"),
    "graphs.masked_csr_s": ("s", "lower"),
    "graphs.masked_csr_builds": ("count", "lower"),
    "graphs.masked_csr_hit_ratio": ("ratio", "higher"),
    "prologue.elect_s": ("s", "lower"),
    "prologue.global_bfs_s": ("s", "lower"),
    "prologue.numbering_s": ("s", "lower"),
    "tree_packing.build_s": ("s", "lower"),
    "tree_packing.parallel_bfs_s": ("s", "lower"),
    "tree_packing.attempts": ("count", "lower"),
    "tree_packing.candidates_probed": ("count", "lower"),
    "tree_packing.probe_yield": ("ratio", "higher"),
    "plane.union_bfs_s": ("s", "lower"),
    "kernels.frontier_sweep_s": ("s", "lower"),
    "kernels.spmv_layers": ("count", "lower"),
    "kernels.gather_layers": ("count", "lower"),
    "kernels.frontier_nodes": ("count", "lower"),
    "kernels.upcast_spans_s": ("s", "lower"),
    "kernels.last_send_round_spans_s": ("s", "lower"),
    "kernels.span_batches": ("count", "lower"),
    "kernels.spans": ("count", "lower"),
    "fastpath.tree_broadcast_s": ("s", "lower"),
    "primitives.tree_broadcast_s": ("s", "lower"),
    "broadcast.self_s": ("s", "lower"),
    "plane.sweep_s": ("s", "lower"),
    "plane.layers": ("count", "lower"),
    "plane.spmv_share": ("ratio", "higher"),
    "plane.chunks": ("count", "lower"),
    "plane.cells": ("count", "lower"),
    "plane.dedup_ratio": ("ratio", "higher"),
    "faults.bfs_grid_s": ("s", "lower"),
    "faults.span_broadcast_s": ("s", "lower"),
    "faults.round_broadcast_s": ("s", "lower"),
    "faults.fault_coins": ("count", "lower"),
    "faults.dropped": ("count", "lower"),
    "faults.queue_rounds": ("count", "lower"),
    "resilient.grid_self_s": ("s", "lower"),
    "resilient.redundant_self_s": ("s", "lower"),
    "pipelines.spanner_edges_s": ("s", "lower"),
    "pipelines.assign_centers_s": ("s", "lower"),
    "pipelines.contract_clusters_s": ("s", "lower"),
    "apsp.clustering_s": ("s", "lower"),
    "apsp.prt_s": ("s", "lower"),
    "apsp.self_s": ("s", "lower"),
    "cuts.sparsifier_s": ("s", "lower"),
    "cuts.self_s": ("s", "lower"),
    "cuts.kept_edge_ratio": ("ratio", "lower"),
    "congest.simulate_s": ("s", "lower"),
    "congest.rounds": ("count", "lower"),
    "congest.messages": ("count", "lower"),
    "congest.bits": ("count", "lower"),
    "congest.activations": ("count", "lower"),
    "congest.us_per_message": ("us/message", "lower"),
    "congest.fault_coins": ("count", "lower"),
    "obs.overhead_share": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, self_times, counters, backend, observed, passes, overhead) -> dict:
    """Fold one traced run into every metric of :data:`METRICS`.

    ``spans``/``self_times`` come from the recorder (set-up spans carry the
    operation id ``None``); ``counters`` sums the ``repro.obs`` counters of
    the traced operations, all run on ``backend``, which decides whether the
    fault-coin and drop counters belong to ``engine.faults`` or ``congest``;
    ``observed`` holds the workload's per-output sums.
    """
    out = dict.fromkeys(METRICS, 0.0)
    children = defaultdict(list)
    for sid, parent, _op, name, *_rest in spans:
        if parent is not None:
            children[parent].append(name)
    probes = attempts_batched = grid_queries = queue_rounds = 0
    for sid, _parent, op, name, _t0, _t1, attrs in spans:
        self_s = self_times[sid]
        if op is None:
            if name == "graphs.build":
                out["graphs.build_s"] += self_s
            continue
        if f"{name}_s" in METRICS:
            out[f"{name}_s"] += self_s / passes
        if name == "faults.broadcast":
            span_path = "faults.span_path" in children[sid]
            key = "faults.span_broadcast_s" if span_path else "faults.round_broadcast_s"
            out[key] += self_s / passes
            if not span_path:
                queue_rounds += attrs["rounds"]
        elif name == "faults.span_path":
            out["faults.span_broadcast_s"] += self_s / passes
        elif name == "plane.union_bfs":
            probes += attrs["groups"]
        elif name == "tree_packing.build" and attrs and attrs["batch"] > 1:
            attempts_batched += attrs["attempts"]
        elif name == "faults.bfs_grid":
            grid_queries += attrs["queries"]

    counts = defaultdict(float, counters)
    vectorized = backend == "vectorized"

    def per_pass(value: float) -> float:
        return value / passes

    hits, misses = counts["graph.masked_csr_hits"], counts["graph.masked_csr_misses"]
    out["graphs.masked_csr_builds"] = per_pass(misses)
    out["graphs.masked_csr_hit_ratio"] = _ratio(hits, hits + misses)
    out["tree_packing.attempts"] = per_pass(counts["packing.attempts"])
    out["tree_packing.candidates_probed"] = per_pass(probes)
    out["tree_packing.probe_yield"] = _ratio(attempts_batched, probes)
    for name in ("spmv_layers", "gather_layers", "frontier_nodes"):
        out[f"kernels.{name}"] = per_pass(counts[f"kernels.{name}"])
    out["kernels.span_batches"] = per_pass(counts["engine.span_batches"])
    out["kernels.spans"] = per_pass(counts["engine.spans"])
    layers = counts["plane.spmv_layers"] + counts["plane.gather_layers"]
    out["plane.layers"] = per_pass(layers)
    out["plane.spmv_share"] = _ratio(counts["plane.spmv_layers"], layers)
    out["plane.chunks"] = per_pass(counts["plane.chunks"])
    out["plane.cells"] = per_pass(counts["plane.cells"])
    out["plane.dedup_ratio"] = _ratio(counts["plane.queries"], grid_queries)
    coins = per_pass(counts["rng.fault_coins"])
    out["faults.fault_coins"] = coins if vectorized else 0.0
    out["faults.dropped"] = per_pass(counts["faults.dropped"]) if vectorized else 0.0
    out["faults.queue_rounds"] = per_pass(queue_rounds)
    out["cuts.kept_edge_ratio"] = _ratio(
        observed.get("cuts.kept_edges", 0), observed.get("cuts.host_edges", 0)
    )
    for name in ("rounds", "messages", "bits", "activations"):
        out[f"congest.{name}"] = per_pass(counts[f"simulate.{name}"])
    out["congest.us_per_message"] = _ratio(
        out["congest.simulate_s"] * 1e6, out["congest.messages"]
    )
    out["congest.fault_coins"] = 0.0 if vectorized else coins
    out["obs.overhead_share"] = overhead
    return out
