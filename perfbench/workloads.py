"""The benchmark's workloads: seeded inputs, one job, quality, reference.

Each workload follows one of the paper's case-study protocols and goes
through the public API only: ``graphs.generators`` -> ``Graph`` ->
``core.fsim.fsim_spark`` -> ``toPandas`` -> the application harness.
Each workload is one fixed problem instance: the generators run with
the protocol's own seed. ``--seed`` picks a random relabelling of the
node ids and a random row order, so every seed gives an isomorphic copy
laid out differently. The instance stays fixed because the engine's
iteration count depends sharply on it (see NOTES.md): across generator
seeds the same-sized align-bj input takes 6 to 60 iterations, which
would make every per-run figure a property of the instance instead of
the code.
"""
from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
import pandas as pd

from repro.align.harness import argmax_alignment, f1_alignment
from repro.core.reference import FSimConfig, fsim_reference
from repro.graphs.generators import dataset_pd, evolving_graphs_pd
from repro.graphs.model import AdjGraph, Graph
from repro.graphs.noise import make_workload, noise_query
from repro.matching.harness import QOFF, f1_match, pack_queries, seed_expand

#: Correctness gate tolerance on ``max |engine - reference|``.
GATE_TOL = 1e-6

_W = (1.0 - 0.2) / 2.0  # w+ = w- for w* = 0.2 (the paper's default)


def _pairs(pdf: pd.DataFrame) -> Tuple[np.ndarray, np.ndarray]:
    """``(u, v)`` keys as one int array sorted by (u, v), plus the scores."""
    u = pdf["u"].to_numpy(dtype=np.int64)
    v = pdf["v"].to_numpy(dtype=np.int64)
    s = pdf["score"].to_numpy(dtype=np.float64)
    order = np.lexsort((v, u))
    return np.stack([u[order], v[order]]), s[order]


def _relabel(rng: np.random.Generator, n_ids: int, frames):
    """Apply one random id permutation to ``(nodes, edges)`` pairs and
    shuffle their rows. Returns the new pairs and the permutation."""
    perm = rng.permutation(n_ids).astype(np.int64)
    out = []
    for nodes, edges in frames:
        nodes = nodes.assign(id=perm[nodes["id"].to_numpy()])
        edges = edges.assign(src=perm[edges["src"].to_numpy()],
                             dst=perm[edges["dst"].to_numpy()])
        out.append((nodes.sample(frac=1.0, random_state=rng).reset_index(drop=True),
                    edges.sample(frac=1.0, random_state=rng).reset_index(drop=True)))
    return out, perm


def _dict_frame(d: Dict[Tuple[int, int], float]) -> pd.DataFrame:
    return pd.DataFrame({"u": [p[0] for p in d], "v": [p[1] for p in d],
                         "score": list(d.values())})


class Workload:
    """One seeded problem: ``g1`` is compared with ``g2`` under ``cfg``.

    Subclasses set ``name``, ``base_seed`` and ``cfg`` and implement
    :meth:`generate` (pandas inputs), :meth:`load` (Spark graphs) and
    :meth:`quality` (the application step on collected scores).
    """

    name: str
    base_seed: int
    cfg: FSimConfig

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def generate(self) -> None:
        raise NotImplementedError

    def load(self, spark) -> None:
        self.g1 = Graph.from_pandas(spark, *self.pd1)
        self.g2 = Graph.from_pandas(spark, *self.pd2)

    def quality(self, scores: pd.DataFrame) -> float:
        raise NotImplementedError

    def reference_inputs(self):
        """The two graphs as pandas ``(nodes, edges)`` for the reference."""
        return self.pd1, self.pd2

    # ------------------------------------------------------ reference gate
    def reference(self, canonical: bool = True):
        """Run the pure-Python reference on the workload's graphs.

        With ``canonical`` the rows are read sorted by node id. The
        reference breaks dp/bj greedy-matching ties by a neighbour's
        position in its edge list, the engine (and ``ops.greedy_matching``'s
        docstring) by node id; only on id-sorted rows are the two the same
        tie order. See NOTES.md, "Tie-break defect".
        """
        def py(nodes: pd.DataFrame, edges: pd.DataFrame):
            if canonical:
                nodes = nodes.sort_values("id")
                edges = edges.sort_values(["src", "dst"])
            labels = dict(zip(nodes["id"].astype(int), nodes["label"]))
            return labels, list(zip(edges["src"].astype(int), edges["dst"].astype(int)))
        in1, in2 = self.reference_inputs()
        return fsim_reference(*py(*in1), *py(*in2), self.cfg)

    def run_reference(self) -> None:
        """The gate's reference: run once, keep sorted pairs and scores."""
        ref = self.reference()
        self.ref_iters = ref.iterations
        self.ref_keys, self.ref_scores = _pairs(_dict_frame(ref.scores))
        self.ref_fkeys, self.ref_fscores = _pairs(_dict_frame(ref.frozen))

    def tie_order_err(self) -> float:
        """``max |reference(generated row order) - reference(id order)|``
        over the pairs both score: what the gate would see if the
        reference read the rows as generated. Non-zero exposes the
        tie-break defect."""
        ref = self.reference(canonical=False)
        got = {**ref.scores, **ref.frozen}
        keys = np.concatenate([self.ref_keys, self.ref_fkeys], axis=1)
        vals = np.concatenate([self.ref_scores, self.ref_fscores])
        diffs = [abs(got[(int(u), int(v))] - s)
                 for (u, v), s in zip(keys.T, vals) if (int(u), int(v)) in got]
        return max(diffs, default=0.0)

    def check(self, scores: pd.DataFrame, frozen: pd.DataFrame,
              iters: int) -> Tuple[float, str]:
        """Compare one job's output with the reference.

        Returns ``(max_abs_err, problem)``; ``problem`` is empty when the
        pair sets (active and frozen) are equal, every score is within
        :data:`GATE_TOL` and the iteration counts agree.
        """
        keys, vals = _pairs(scores)
        fkeys, fvals = _pairs(frozen)
        if keys.shape != self.ref_keys.shape or not np.array_equal(keys, self.ref_keys):
            return float("inf"), (f"active pair set differs: engine {keys.shape[1]}, "
                                  f"reference {self.ref_keys.shape[1]}")
        if fkeys.shape != self.ref_fkeys.shape or not np.array_equal(fkeys, self.ref_fkeys):
            return float("inf"), (f"frozen pair set differs: engine {fkeys.shape[1]}, "
                                  f"reference {self.ref_fkeys.shape[1]}")
        err = float(max(np.max(np.abs(vals - self.ref_scores), initial=0.0),
                        np.max(np.abs(fvals - self.ref_fscores), initial=0.0)))
        if not err <= GATE_TOL:
            return err, f"max |engine - reference| = {err:.3g} > {GATE_TOL:g}"
        if iters != self.ref_iters:
            return err, f"iterations differ: engine {iters}, reference {self.ref_iters}"
        return err, ""


class AlignBJ(Workload):
    """Table-9 alignment of evolving graph versions G1 vs G3 with
    FSim_bj{theta=1, upper bound alpha=0, beta=0.3}."""

    name = "align-bj"
    base_seed = 23
    n_nodes, n_edges = 500, 1100
    cfg = FSimConfig(variant="bj", w_out=_W, w_in=_W, theta=1.0,
                     label_fn="indicator", eps=1e-2,
                     upper_bound=True, alpha=0.0, beta=0.3)

    def generate(self) -> None:
        versions = evolving_graphs_pd(n_nodes=self.n_nodes, n_edges=self.n_edges,
                                      n_labels=8, n_versions=3, seed=self.base_seed)
        # one permutation for both versions keeps the identity ground truth
        (self.pd1, self.pd2), _ = _relabel(np.random.default_rng(self.seed),
                                           int(versions[2][0]["id"].max()) + 1,
                                           [versions[0], versions[2]])

    def quality(self, scores: pd.DataFrame) -> float:
        ids = self.pd1[0]["id"].astype(int)
        truth = {int(i): int(i) for i in ids}
        return f1_alignment(argmax_alignment(scores), truth, len(truth))


class MatchS(Workload):
    """Table-6 pattern matching: 40 'Combined'-noise queries packed into
    one graph against an Amazon-like data graph, FSim_s{theta=1}."""

    name = "match-s"
    base_seed = 3
    scale, n_queries = 0.005, 40
    cfg = FSimConfig(variant="s", w_out=_W, w_in=_W, theta=1.0,
                     label_fn="indicator", eps=1e-2)

    def generate(self) -> None:
        nodes, edges = dataset_pd("Amazon", scale=self.scale, seed=self.base_seed)
        labels = sorted(nodes.label.unique())
        base = make_workload(nodes, edges, n_queries=self.n_queries, seed=self.base_seed)
        self.queries = [noise_query(q, "Combined", labels, seed=self.base_seed + 77 + q.qid)
                        for q in base]
        [(nodes, edges)], perm = _relabel(np.random.default_rng(self.seed), int(nodes["id"].max()) + 1,
                                          [(nodes, edges)])
        for q in self.queries:
            q.origin = {i: int(perm[g]) for i, g in q.origin.items()}
        self.adj = AdjGraph.build(nodes, edges)
        self.pd2 = (nodes, edges)

    def load(self, spark) -> None:
        self.g1 = pack_queries(spark, self.queries)
        self.g2 = Graph.from_pandas(spark, *self.pd2)

    def reference_inputs(self):
        return self.g1.to_pandas(), self.pd2

    def quality(self, scores: pd.DataFrame) -> float:
        per_q: Dict[int, Dict[Tuple[int, int], float]] = {q.qid: {} for q in self.queries}
        for u, v, s in zip(scores["u"], scores["v"], scores["score"]):
            per_q[int(u) // QOFF][(int(u) % QOFF, int(v))] = float(s)
        f1s = [f1_match(q, seed_expand(q, per_q[q.qid], self.adj))
               for q in self.queries]
        return 100.0 * sum(f1s) / len(f1s)


WORKLOADS = {w.name: w for w in (AlignBJ, MatchS)}
