"""The benchmark's four workloads: set-up, operations, and output checks.

Each workload drives the program only through the public entry points of
``repro.core``, ``repro.engine``, ``repro.apsp``, ``repro.cuts`` and
``repro.congest``, always calling them through their module (never through a
name bound here) so that the traced run's wrappers see the top-level call.
Every input -- hosts, weights, placements, roots, seeds -- is generated here
from the workload seed and handed to the program.

A workload runs a fixed *pass*: a sequence of operation kinds chosen so that
each kind takes a comparable share of the pass at the sizes below. ``mix_s``
(the end-to-end metric every workload reports) is the time of one pass, built
from the per-kind medians; the per-kind figures are reported by name beside
it.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from dataclasses import dataclass, field

import numpy as np

from repro.apsp import spanner as apsp_spanner
from repro.apsp import unweighted as apsp_unweighted
from repro.congest.adversary import FaultPlan, MobileAdversary
from repro.core import broadcast as core_broadcast
from repro.core import resilient
from repro.core import tree_packing
from repro.cuts import approx as cuts_approx
from repro.engine import faults as engine_faults
from repro.graphs import generators

try:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra
except ImportError:  # the checks fall back to a heap Dijkstra
    csr_matrix = dijkstra = None

# Seed ranges: warm-up operations draw program seeds below _TIMED_BASE and
# every measured operation at or above it, so no timed operation reuses a
# seed (and hence a packing, or a memoized CSR) that the warm-up built.
_TIMED_BASE = 1 << 30
_SEED_SPAN = 1 << 29


@dataclass(frozen=True)
class Kind:
    """One operation kind and the named per-kind metric it reports."""

    name: str
    metric: str
    unit: str
    rate: bool = False  # metric is units/second (else seconds/unit)


@dataclass
class Op:
    kind: str
    args: dict
    units: int = 1  # placements, distinct sweeps or cells the call serves


@dataclass
class Env:
    """What one set-up builds: hosts and prebuilt artifacts."""

    hosts: dict
    extra: dict = field(default_factory=dict)


def digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _state(rng_state: dict) -> str:
    return json.dumps(rng_state, sort_keys=True)


def placement_from(rng: np.random.Generator, n: int, k: int) -> dict[int, int]:
    """k messages at independently uniform nodes, as ``{node: count}``."""
    counts = np.bincount(rng.integers(n, size=k), minlength=n)
    nodes = np.nonzero(counts)[0]
    return dict(zip(nodes.tolist(), counts[nodes].tolist()))


class SeedSource:
    """Distinct program seeds per run, split into warm-up and timed ranges."""

    def __init__(self) -> None:
        self.used: set[int] = set()

    def draw(self, rng: np.random.Generator, timed: bool) -> int:
        base = _TIMED_BASE if timed else 1
        while True:
            s = base + int(rng.integers(_SEED_SPAN))
            if s not in self.used:
                self.used.add(s)
                return s


def distances(n: int, u, v, w, sources) -> np.ndarray:
    """Shortest-path rows from ``sources`` (benchmark-side reference)."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.ones(u.size) if w is None else np.asarray(w, dtype=np.float64)
    if dijkstra is not None:
        mat = csr_matrix(
            (np.concatenate([w, w]), (np.concatenate([u, v]), np.concatenate([v, u]))),
            shape=(n, n),
        )
        return dijkstra(mat, directed=True, indices=list(sources))
    order = np.argsort(np.concatenate([u, v]), kind="stable")
    dst = np.concatenate([v, u])[order]
    wt = np.concatenate([w, w])[order]
    indptr = np.searchsorted(np.concatenate([u, v])[order], np.arange(n + 1))
    rows = np.full((len(sources), n), np.inf)
    for i, s in enumerate(sources):
        dist = rows[i]
        dist[s] = 0.0
        heap = [(0.0, int(s))]
        while heap:
            d, x = heapq.heappop(heap)
            if d > dist[x]:
                continue
            for j in range(indptr[x], indptr[x + 1]):
                y, nd = int(dst[j]), d + wt[j]
                if nd < dist[y]:
                    dist[y] = nd
                    heapq.heappush(heap, (nd, y))
    return rows


def broadcast_ledger(r) -> tuple:
    return (
        r.algorithm,
        r.n,
        r.k,
        r.parts,
        tuple(sorted(r.phases.items())),
        r.max_congestion,
        r.packing_max_depth,
        r.delivered,
    )


def report_ledger(r) -> tuple:
    cov = sorted(r.per_message_coverage.items())
    return (
        r.k,
        r.redundancy,
        r.rounds,
        r.dropped_messages,
        digest(np.asarray(cov, dtype=np.float64).ravel()),
        _state(r.fault_rng_state) if r.fault_rng_state is not None else None,
        r.total_messages,
        r.total_bits,
    )


def check_broadcast(r, k: int, algorithm: str, phase_keys: set) -> list[str]:
    out = []
    if not r.delivered:
        out.append(f"{algorithm}: not delivered")
    if r.rounds != sum(r.phases.values()):
        out.append(f"{algorithm}: rounds {r.rounds} != sum(phases)")
    if set(r.phases) != phase_keys:
        out.append(f"{algorithm}: phases {sorted(r.phases)}")
    if r.k != k or r.algorithm != algorithm:
        out.append(f"{algorithm}: k={r.k} algorithm={r.algorithm}")
    return out


_TEXTBOOK_PHASES = {"leader_election", "global_bfs", "numbering", "pipeline"}
_FAST_PHASES = _TEXTBOOK_PHASES | {"tree_packing"}


class Workload:
    """Interface shared by the four workloads."""

    name: str
    backend: str
    kinds: tuple[Kind, ...]
    sequence: tuple[str, ...]  # one pass, in execution order

    def __init__(self, seed: int, toy: bool):
        """``toy`` selects hosts of a few dozen nodes (the smoke test's)."""
        self.seed = seed
        self.seeds = SeedSource()

    def build(self) -> Env:
        raise NotImplementedError

    def make_op(self, env: Env, kind: str, rng: np.random.Generator, timed: bool) -> Op:
        raise NotImplementedError

    def run(self, env: Env, op: Op):
        raise NotImplementedError

    def check(self, env: Env, op: Op, result, rng: np.random.Generator) -> list[str]:
        raise NotImplementedError

    def ledger(self, op: Op, result):
        raise NotImplementedError

    def rounds(self, op: Op, result) -> dict[str, int]:
        """Certified CONGEST rounds of the operation, by reported name."""
        return {}

    def observe(self, env: Env, op: Op, result) -> dict[str, float]:
        """Per-layer sums read off the operation's output."""
        return {}

    def manifest(self, env: Env) -> dict:
        raise NotImplementedError

    def setup_rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, 0])


def _host_manifest(spec: str, g, lam: int) -> dict:
    return {"spec": spec, "n": g.n, "m": g.m, "lambda": lam}


class Broadcast(Workload):
    """Solo textbook, solo fast (cold packing) and batched fast broadcast."""

    name = "broadcast"
    backend = "vectorized"
    kinds = (
        Kind("textbook", "textbook_s", "s/op"),
        Kind("fast", "fast_s", "s/op"),
        Kind("batch", "fast_batch_s", "s/placement"),
    )
    sequence = ("textbook", "fast", "batch", "textbook", "fast", "textbook")

    def __init__(self, seed, toy):
        super().__init__(seed, toy)
        self.groups, self.size = (12, 4) if toy else (625, 40)
        self.batch = 2

    def build(self) -> Env:
        g = generators.thick_cycle(self.groups, self.size)
        return Env(hosts={"host": g}, extra={"lam": 2 * self.size, "k": 2 * g.n})

    def make_op(self, env, kind, rng, timed):
        g, k = env.hosts["host"], env.extra["k"]
        if kind == "textbook":
            return Op(kind, {"placement": placement_from(rng, g.n, k)})
        if kind == "fast":
            return Op(kind, {
                "placement": placement_from(rng, g.n, k),
                "seed": self.seeds.draw(rng, timed),
            })
        return Op(
            kind,
            {
                "placements": [placement_from(rng, g.n, k) for _ in range(self.batch)],
                "seed": self.seeds.draw(rng, timed),
            },
            units=self.batch,
        )

    def run(self, env, op):
        g, lam = env.hosts["host"], env.extra["lam"]
        a = op.args
        if op.kind == "textbook":
            return core_broadcast.textbook_broadcast(g, a["placement"], backend="vectorized")
        if op.kind == "fast":
            return core_broadcast.fast_broadcast(
                g, a["placement"], lam=lam, seed=a["seed"], backend="vectorized"
            )
        return core_broadcast.fast_broadcast_batch(
            g, a["placements"], lam=lam, seeds=a["seed"], backend="vectorized"
        )

    def check(self, env, op, result, rng):
        k = env.extra["k"]
        if op.kind == "textbook":
            return check_broadcast(result, k, "textbook", _TEXTBOOK_PHASES)
        if op.kind == "fast":
            return check_broadcast(result, k, "fast", _FAST_PHASES)
        out = []
        for r in result:
            out += check_broadcast(r, k, "fast", _FAST_PHASES)
        j = int(rng.integers(len(result)))
        solo = core_broadcast.fast_broadcast(
            env.hosts["host"],
            op.args["placements"][j],
            lam=env.extra["lam"],
            seed=op.args["seed"],
            backend="vectorized",
        )
        if broadcast_ledger(solo) != broadcast_ledger(result[j]):
            out.append(f"batch element {j} differs from the solo call")
        return out

    def ledger(self, op, result):
        if op.kind == "batch":
            return [broadcast_ledger(r) for r in result]
        return broadcast_ledger(result)

    def rounds(self, op, result):
        if op.kind == "textbook":
            return {"textbook_rounds": result.rounds}
        if op.kind == "fast":
            return {"fast_rounds": result.rounds}
        return {"fast_rounds": result[0].rounds}

    def manifest(self, env):
        g = env.hosts["host"]
        return {
            "hosts": [_host_manifest(f"thick_cycle({self.groups}, {self.size})", g, env.extra["lam"])],
            "k": env.extra["k"],
            "batch_placements": self.batch,
        }


class Faults(Workload):
    """Distinct-root fault grids on two hosts, rate-0 and lossy grid cells."""

    name = "faults"
    backend = "vectorized"
    kinds = (
        Kind("grid_deep", "grid_deep_sweeps_per_s", "sweeps/s", rate=True),
        Kind("grid_dense", "grid_dense_sweeps_per_s", "sweeps/s", rate=True),
        Kind("static", "static_cell_s", "s/cell"),
        Kind("lossy", "lossy_cell_s", "s/cell"),
    )
    sequence = ("grid_deep", "static", "grid_dense", "lossy")

    def __init__(self, seed, toy):
        super().__init__(seed, toy)
        if toy:
            self.deep, self.dense = (30, 4), (10, 10)
            self.q_deep, self.q_dense, self.parts, self.k = 16, 8, 2, 40
        else:
            self.deep, self.dense = (2500, 4), (250, 40)
            self.q_deep, self.q_dense, self.parts, self.k = 64, 16, 4, 1000
        self.drop_rate = 0.02

    def build(self) -> Env:
        rng = self.setup_rng()
        deep = generators.thick_cycle(*self.deep)
        dense = generators.thick_cycle(*self.dense)
        plans = {
            name: FaultPlan(
                dead_edges=rng.choice(g.m, size=max(1, g.m // 100), replace=False).tolist()
            )
            for name, g in (("deep", deep), ("dense", dense))
        }
        packing, _attempts = tree_packing.build_packing_with_retry(
            dense,
            self.parts,
            seed=int(rng.integers(1, _TIMED_BASE)),
            distributed=False,
            backend="vectorized",
        )
        dead = sorted(resilient.tree_edge_ids(packing, 0))
        mobile = MobileAdversary.sweeping(dead, budget=32, rounds=4000)
        return Env(
            hosts={"deep": deep, "dense": dense},
            extra={"plans": plans, "packing": packing, "dead": dead, "mobile": mobile},
        )

    def make_op(self, env, kind, rng, timed):
        if kind in ("grid_deep", "grid_dense"):
            host = "deep" if kind == "grid_deep" else "dense"
            g = env.hosts[host]
            q = self.q_deep if host == "deep" else self.q_dense
            roots = rng.choice(g.n, size=q, replace=False).tolist()
            fault_seeds = rng.integers(0, 1 << 16, size=q).tolist()
            return Op(kind, {"host": host, "roots": roots, "fault_seeds": fault_seeds}, units=q)
        g = env.hosts["dense"]
        placement = placement_from(rng, g.n, self.k)
        seed = self.seeds.draw(rng, timed)
        if kind == "static":
            dead = env.extra["dead"]
            cells = [
                resilient.FaultCell(redundancy=1, dead_edges=dead),
                resilient.FaultCell(redundancy=2, dead_edges=dead),
                resilient.FaultCell(redundancy=2, adversary=env.extra["mobile"]),
            ]
        else:
            cells = [
                resilient.FaultCell(
                    redundancy=2,
                    drop_rate=self.drop_rate,
                    fault_seed=self.seeds.draw(rng, timed),
                )
            ]
        return Op(kind, {"placement": placement, "seed": seed, "cells": cells}, units=len(cells))

    def run(self, env, op):
        a = op.args
        if op.kind in ("grid_deep", "grid_dense"):
            return engine_faults.faulty_bfs_grid(
                env.hosts[a["host"]],
                a["roots"],
                plan=env.extra["plans"][a["host"]],
                fault_seeds=a["fault_seeds"],
                backend="vectorized",
            )
        return resilient.evaluate_fault_grid(
            env.hosts["dense"],
            a["placement"],
            env.extra["packing"],
            a["cells"],
            seed=a["seed"],
            backend="vectorized",
        )

    def check(self, env, op, result, rng):
        a = op.args
        out = []
        if op.kind in ("grid_deep", "grid_dense"):
            if len(result) != len(a["roots"]):
                return [f"{op.kind}: {len(result)} outcomes for {len(a['roots'])} roots"]
            g = env.hosts[a["host"]]
            for i in rng.choice(len(result), size=min(2, len(result)), replace=False).tolist():
                solo = engine_faults.faulty_bfs(
                    g,
                    a["roots"][i],
                    plan=env.extra["plans"][a["host"]],
                    fault_seed=a["fault_seeds"][i],
                    backend="vectorized",
                )
                if self._bfs_ledger(solo) != self._bfs_ledger(result[i]):
                    out.append(f"{op.kind}: element {i} differs from the solo faulty_bfs")
            return out
        k, parts = self.k, env.extra["packing"].size
        home = math.ceil(k / parts)
        for cell, rep in zip(a["cells"], result):
            if any(not 0.0 <= c <= 1.0 for c in rep.per_message_coverage.values()):
                out.append(f"{op.kind}: coverage outside [0, 1]")
            if rep.k != k or rep.rounds <= 0:
                out.append(f"{op.kind}: k={rep.k} rounds={rep.rounds}")
            fs = a["seed"] if cell.fault_seed is None else cell.fault_seed
            pristine = np.random.default_rng(fs).bit_generator.state
            if cell.drop_rate == 0.0:
                if rep.fault_rng_state != pristine:
                    out.append(f"{op.kind}: a rate-0 cell drew fault coins")
            elif rep.fault_rng_state == pristine or rep.dropped_messages <= 0:
                out.append(f"{op.kind}: the lossy cell drew no coins or dropped nothing")
            if cell.dead_edges:
                want = k - home if cell.redundancy == 1 else k
                if rep.fully_delivered != want:
                    out.append(
                        f"dead tree r={cell.redundancy}: {rep.fully_delivered} "
                        f"fully delivered, expected {want}"
                    )
        if len(result) != len(a["cells"]):
            out.append(f"{op.kind}: {len(result)} reports for {len(a['cells'])} cells")
        return out

    @staticmethod
    def _bfs_ledger(o) -> tuple:
        return (
            digest(o.result.parent, o.result.dist),
            o.result.rounds,
            o.dropped,
            _state(o.fault_rng_state),
        )

    def ledger(self, op, result):
        if op.kind in ("grid_deep", "grid_dense"):
            return [self._bfs_ledger(o) for o in result]
        return [report_ledger(r) for r in result]

    def rounds(self, op, result):
        if op.kind in ("grid_deep", "grid_dense"):
            return {f"{op.kind}_rounds": sum(o.result.rounds for o in result)}
        return {f"{op.kind}_cell_rounds": sum(r.rounds for r in result) // len(result)}

    def manifest(self, env):
        deep, dense = env.hosts["deep"], env.hosts["dense"]
        return {
            "hosts": [
                _host_manifest(f"thick_cycle{self.deep}", deep, 2 * self.deep[1]),
                _host_manifest(f"thick_cycle{self.dense}", dense, 2 * self.dense[1]),
            ],
            "k": self.k,
            "grid_roots": {"deep": self.q_deep, "dense": self.q_dense},
            "packing_trees": env.extra["packing"].size,
            "dead_edges_per_plan": {h: len(p.dead_edges) for h, p in env.extra["plans"].items()},
            "lossy_drop_rate": self.drop_rate,
        }


class ApspCuts(Workload):
    """Baswana-Sen spanner, all-cuts approximation, unweighted APSP."""

    name = "apsp-cuts"
    backend = "vectorized"
    kinds = (
        Kind("spanner", "spanner_s", "s/op"),
        Kind("cuts", "cuts_s", "s/op"),
        Kind("apsp", "apsp_s", "s/op"),
    )
    sequence = ("apsp", "spanner", "spanner", "cuts", "spanner", "spanner")

    def __init__(self, seed, toy):
        super().__init__(seed, toy)
        self.n, self.d = (80, 30) if toy else (2000, 40)
        self.spanner_k = 3
        self.eps, self.tau = 0.5, 4
        self.samples = 8

    def build(self) -> Env:
        rng = self.setup_rng()
        g = generators.random_regular(self.n, self.d, seed=int(rng.integers(1 << 31)))
        gw = generators.random_weights(g, 1, 2, seed=int(rng.integers(1 << 31)))
        return Env(hosts={"host": g, "weighted": gw}, extra={"lam": self.d})

    def make_op(self, env, kind, rng, timed):
        return Op(kind, {"seed": self.seeds.draw(rng, timed)})

    def run(self, env, op):
        s = op.args["seed"]
        if op.kind == "spanner":
            return apsp_spanner.baswana_sen_spanner(
                env.hosts["weighted"], self.spanner_k, seed=s, backend="vectorized"
            )
        if op.kind == "cuts":
            return cuts_approx.approx_all_cuts(
                env.hosts["weighted"],
                self.eps,
                lam=env.extra["lam"],
                seed=s,
                tau=self.tau,
                backend="vectorized",
            )
        return apsp_unweighted.approx_apsp_unweighted(
            env.hosts["host"], lam=env.extra["lam"], seed=s, backend="vectorized"
        )

    def check(self, env, op, result, rng):
        g, gw = env.hosts["host"], env.hosts["weighted"]
        sources = rng.choice(g.n, size=min(self.samples, g.n), replace=False)
        if op.kind == "spanner":
            h = result.spanner
            dg = distances(g.n, gw.edge_u, gw.edge_v, gw.weights, sources)
            dh = distances(h.n, h.edge_u, h.edge_v, h.weights, sources)
            with np.errstate(divide="ignore", invalid="ignore"):
                stretch = np.where(dg > 0, dh / dg, 1.0)
            worst = float(stretch.max())
            bound = 2 * self.spanner_k - 1
            return [] if worst <= bound + 1e-9 else [f"spanner stretch {worst} > {bound}"]
        if op.kind == "cuts":
            h = result.sparsifier.sparsifier
            out = []
            if h.m >= gw.m:
                out.append(f"sparsifier keeps {h.m} of {gw.m} edges")
            sides = [rng.random(g.n) < 0.5 for _ in range(16)]
            for v in sources.tolist():
                side = np.zeros(g.n, dtype=bool)
                side[v] = True
                sides.append(side)
            for side in sides:
                cg = float(gw.weights[side[gw.edge_u] != side[gw.edge_v]].sum())
                ch = float(h.weights[side[h.edge_u] != side[h.edge_v]].sum())
                if cg > 0 and abs(ch - cg) / cg > self.eps:
                    out.append(f"cut error {abs(ch - cg) / cg:.3f} > eps {self.eps}")
                    break
            return out
        exact = distances(g.n, g.edge_u, g.edge_v, None, sources)
        est = result.estimate[sources]
        off = np.ones_like(exact, dtype=bool)
        off[np.arange(len(sources)), sources] = False
        if not ((est[off] >= exact[off]).all() and (est[off] <= 3 * exact[off] + 2).all()):
            return ["apsp estimate outside [d, 3d + 2]"]
        return []

    def ledger(self, op, result):
        if op.kind == "spanner":
            return (digest(result.edge_ids), result.charged_rounds, result.spanner.m)
        if op.kind == "cuts":
            h = result.sparsifier.sparsifier
            return (
                digest(h.edge_u, h.edge_v, h.weights),
                result.sparsifier.levels,
                tuple(sorted(result.simulated_rounds.items())),
                tuple(sorted(result.charged_rounds.items())),
            )
        return (
            digest(result.estimate),
            tuple(sorted(result.simulated_rounds.items())),
            tuple(sorted(result.charged_rounds.items())),
            result.k_clusters,
        )

    def rounds(self, op, result):
        if op.kind == "spanner":
            return {"spanner_rounds": result.charged_rounds}
        return {f"{op.kind}_rounds": result.rounds}

    def observe(self, env, op, result):
        if op.kind == "cuts":
            return {"cuts.kept_edges": result.sparsifier.m, "cuts.host_edges": env.hosts["weighted"].m}
        return {}

    def manifest(self, env):
        g = env.hosts["host"]
        return {
            "hosts": [
                _host_manifest(f"random_regular({self.n}, {self.d})", g, self.d),
            ],
            "weights": "uniform integers in {1, 2}",
            "spanner_k": self.spanner_k,
            "cuts": {"eps": self.eps, "tau": self.tau},
        }


class Reference(Workload):
    """Simulator fast broadcast and lossy redundant broadcast (ground truth)."""

    name = "reference"
    backend = "simulator"
    kinds = (
        Kind("sim_fast", "sim_fast_s", "s/op"),
        Kind("sim_lossy", "sim_lossy_s", "s/op"),
    )
    sequence = ("sim_fast", "sim_lossy")

    def __init__(self, seed, toy):
        super().__init__(seed, toy)
        self.groups, self.size = (6, 4) if toy else (16, 10)
        self.C = 1.0
        self.drop_rate = 0.05

    def build(self) -> Env:
        rng = self.setup_rng()
        g = generators.thick_cycle(self.groups, self.size)
        packing, _attempts = tree_packing.build_packing_with_retry(
            g, 2, seed=int(rng.integers(1, _TIMED_BASE)), distributed=False, backend="vectorized"
        )
        return Env(hosts={"host": g}, extra={"lam": 2 * self.size, "k": 2 * g.n, "packing": packing})

    def make_op(self, env, kind, rng, timed):
        g = env.hosts["host"]
        args = {"placement": placement_from(rng, g.n, env.extra["k"]), "seed": self.seeds.draw(rng, timed)}
        if kind == "sim_lossy":
            args["fault_seed"] = self.seeds.draw(rng, timed)
        return Op(kind, args)

    def _run(self, env, op, backend):
        g, a = env.hosts["host"], op.args
        if op.kind == "sim_fast":
            return core_broadcast.fast_broadcast(
                g, a["placement"], lam=env.extra["lam"], C=self.C, seed=a["seed"], backend=backend
            )
        return resilient.redundant_broadcast(
            g,
            a["placement"],
            env.extra["packing"],
            redundancy=2,
            drop_rate=self.drop_rate,
            seed=a["seed"],
            fault_seed=a["fault_seed"],
            backend=backend,
        )

    def run(self, env, op):
        return self._run(env, op, "simulator")

    def check(self, env, op, result, rng):
        twin = self._run(env, op, "vectorized")
        if op.kind == "sim_fast":
            out = check_broadcast(result, env.extra["k"], "fast", _FAST_PHASES)
            if broadcast_ledger(twin) != broadcast_ledger(result):
                out.append("simulator fast_broadcast ledger differs from the vectorized backend")
            return out
        if report_ledger(twin) != report_ledger(result):
            return ["simulator lossy report or fault RNG state differs from the vectorized backend"]
        return []

    def ledger(self, op, result):
        if op.kind == "sim_fast":
            return broadcast_ledger(result)
        return report_ledger(result)

    def rounds(self, op, result):
        return {f"{op.kind}_rounds": result.rounds}

    def manifest(self, env):
        g = env.hosts["host"]
        return {
            "hosts": [_host_manifest(f"thick_cycle({self.groups}, {self.size})", g, env.extra["lam"])],
            "k": env.extra["k"],
            "fast_C": self.C,
            "lossy": {"redundancy": 2, "drop_rate": self.drop_rate, "packing_trees": env.extra["packing"].size},
        }


WORKLOADS = {w.name: w for w in (Broadcast, Faults, ApspCuts, Reference)}
