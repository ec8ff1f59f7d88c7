"""The distributed FSim engine vs the pure-Python reference, plus engine-
level properties (P2, theta, upper-bound mode).

Equivalence runs use ``exact_iters`` so both implementations perform the
same number of iterations (eps-converged dp/bj runs may stop at
different phases of a greedy-tie cycle; see DESIGN.md).
"""
import random
import re

import pytest

from repro.core.fsim import fsim_spark
from repro.core.reference import FSimConfig, fsim_reference
from repro.exact.pysim import exact_simulation_py
from repro.graphs.model import Graph
from repro.graphs.toy import (G1_EDGES, G1_LABELS, G2_EDGES, G2_LABELS,
                              figure1_graphs)

VARIANTS = ["s", "dp", "b", "bj"]


def random_graph(seed, n=10, p=0.22, labels=("A", "B", "C")):
    rng = random.Random(seed)
    lab = {i: rng.choice(labels) for i in range(n)}
    edges = [(i, j) for i in range(n) for j in range(n)
             if i != j and rng.random() < p]
    return lab, edges


def spark_scores(spark, l1, e1, l2, e2, cfg, **kw):
    g1 = Graph.from_edge_list(spark, l1, e1)
    g2 = Graph.from_edge_list(spark, l2, e2)
    return {(r["u"], r["v"]): r["score"]
            for r in fsim_spark(spark, g1, g2, cfg, **kw).collect()}


def assert_same(spark_map, ref_map, tol=1e-9):
    assert set(spark_map) == set(ref_map)
    for p in ref_map:
        assert spark_map[p] == pytest.approx(ref_map[p], abs=tol), p


@pytest.mark.parametrize("variant", VARIANTS)
class TestEngineMatchesReference:
    def test_toy_theta0(self, spark, variant):
        cfg = FSimConfig(variant=variant, theta=0.0, exact_iters=3)
        got = spark_scores(spark, G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
        ref = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
        assert_same(got, ref.scores)

    def test_toy_theta1(self, spark, variant):
        cfg = FSimConfig(variant=variant, theta=1.0, exact_iters=3)
        got = spark_scores(spark, G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
        ref = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
        assert_same(got, ref.scores)

    def test_random_graph_jaro_winkler(self, spark, variant):
        l1, e1 = random_graph(7)
        l2, e2 = random_graph(8)
        cfg = FSimConfig(variant=variant, label_fn="jaro_winkler",
                         theta=0.0, exact_iters=2)
        got = spark_scores(spark, l1, e1, l2, e2, cfg)
        ref = fsim_reference(l1, e1, l2, e2, cfg)
        assert_same(got, ref.scores)

    def test_upper_bound_mode(self, spark, variant):
        cfg = FSimConfig(variant=variant, theta=0.0, exact_iters=3,
                         upper_bound=True, alpha=0.2, beta=0.6)
        g1, g2 = figure1_graphs(spark)
        scores_df, frozen_df = fsim_spark(spark, g1, g2, cfg,
                                          return_frozen=True)
        got = {(r["u"], r["v"]): r["score"] for r in scores_df.collect()}
        got_frozen = {(r["u"], r["v"]): r["score"] for r in frozen_df.collect()}
        ref = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
        assert_same(got, ref.scores)
        assert_same(got_frozen, ref.frozen)


@pytest.mark.parametrize("upper_bound", [False, True])
@pytest.mark.parametrize("variant", ["dp", "bj"])
def test_greedy_ties_ignore_edge_row_order(spark, variant, upper_bound):
    """dp/bj greedy ties break by node id on both sides, so the reference
    agrees with the engine on edges read in any row order."""
    l1, e1 = random_graph(7)
    l2, e2 = random_graph(8)
    rng = random.Random(5)
    e1, e2 = rng.sample(e1, len(e1)), rng.sample(e2, len(e2))
    cfg = FSimConfig(variant=variant, theta=0.0, exact_iters=3,
                     upper_bound=upper_bound, alpha=0.2, beta=0.6)
    g1 = Graph.from_edge_list(spark, l1, e1)
    g2 = Graph.from_edge_list(spark, l2, e2)
    scores_df, frozen_df = fsim_spark(spark, g1, g2, cfg, return_frozen=True)
    ref = fsim_reference(l1, e1, l2, e2, cfg)
    assert_same({(r["u"], r["v"]): r["score"] for r in scores_df.collect()},
                ref.scores)
    assert_same({(r["u"], r["v"]): r["score"] for r in frozen_df.collect()},
                ref.frozen)


# The per-iteration line that benchmark tooling parses for iteration
# counts and durations.
ITER_LINE = re.compile(r"^\[fsim \w+\] iter=\d+ .*dt=([0-9.]+)s")


@pytest.mark.parametrize("exact_iters", [None, 3])
def test_debug_line_per_iteration(spark, monkeypatch, capsys, exact_iters):
    monkeypatch.setenv("REPRO_FSIM_DEBUG", "1")
    cfg = FSimConfig(variant="s", exact_iters=exact_iters)
    spark_scores(spark, G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
    lines = [ln for ln in capsys.readouterr().err.splitlines()
             if ITER_LINE.match(ln)]
    iters = fsim_reference(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES,
                           cfg).iterations
    assert iters > 1
    assert [int(re.search(r"iter=(\d+)", ln).group(1)) for ln in lines] \
        == list(range(1, iters + 1))


class TestEngineProperties:
    @pytest.mark.parametrize("variant", ["s", "b"])
    def test_simulation_definiteness_converged(self, spark, variant):
        cfg = FSimConfig(variant=variant, eps=1e-3, max_iter=40)
        got = spark_scores(spark, G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
        rel = exact_simulation_py(G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES,
                                  variant)
        for p, s in got.items():
            if p in rel:
                assert s == pytest.approx(1.0, abs=1e-6)
            else:
                assert s < 1.0 - 1e-4

    def test_range_all_variants(self, spark):
        for variant in VARIANTS:
            cfg = FSimConfig(variant=variant, exact_iters=2)
            got = spark_scores(spark, G1_LABELS, G1_EDGES, G2_LABELS,
                               G2_EDGES, cfg)
            assert all(-1e-12 <= s <= 1 + 1e-12 for s in got.values())

    def test_theta_prunes_candidate_pairs(self, spark):
        c0 = spark_scores(spark, G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES,
                          FSimConfig(variant="s", theta=0.0, exact_iters=1))
        c1 = spark_scores(spark, G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES,
                          FSimConfig(variant="s", theta=1.0, exact_iters=1))
        assert len(c1) < len(c0)
        assert len(c0) == len(G1_LABELS) * len(G2_LABELS)

    def test_max_pairs_guard(self, spark):
        l1, e1 = random_graph(1, n=12)
        cfg = FSimConfig(variant="s", theta=0.0, exact_iters=1, max_pairs=10)
        with pytest.raises(AssertionError, match="max_pairs"):
            spark_scores(spark, l1, e1, l1, e1, cfg)

    def test_symmetry_of_bj_on_spark(self, spark):
        cfg = FSimConfig(variant="bj", exact_iters=3)
        fwd = spark_scores(spark, G1_LABELS, G1_EDGES, G2_LABELS, G2_EDGES, cfg)
        bwd = spark_scores(spark, G2_LABELS, G2_EDGES, G1_LABELS, G1_EDGES, cfg)
        for (u, v), s in fwd.items():
            assert s == pytest.approx(bwd[(v, u)], abs=1e-9)
