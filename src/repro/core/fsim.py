"""FSimX — the paper's fractional chi-simulation framework on Spark.

Distributed transcription of Algorithm 1 + Table 3 as an iterative
DataFrame fixpoint (the ``repro`` hint's "iterative message passing /
fixpoint computation over graph edges"):

- the score map H is a DataFrame ``(u, v, score)`` over candidate pairs
  (pairs with ``L(u, v) >= theta``; the paper's label-constrained
  maintenance);
- one iteration joins the two edge relations through the previous
  scores — ``E1(u,x) |X| S(x,y,s) |X| E2(v,y)`` — then reduces each
  (u, v) group with the variant's mapping operator: groupBy-max/sum for
  s and b, and for dp/bj a greedy max-weight matching (Section 4.2's
  "greedy approximate of Hungarian") expressed as a Catalyst
  higher-order fold over the collected candidate array — the whole loop
  stays in Tungsten, no Python workers;
- lineage is truncated every iteration with ``localCheckpoint`` and the
  loop stops when ``max |Delta| < eps`` (Theorem 1 guarantees
  contraction by a factor of w+ + w-).

Upper-bound updating (Section 3.4): every score is at most 1, so the
Eq.-6 bound is one Eq.-1 update on a unit score map (every candidate
pair scores 1). Pairs whose bound is below ``beta`` are frozen at
``alpha * ub`` and only participate as neighbor lookups, never
recomputed.

The ``simrank`` variant (Section 4.3) reuses the same loop with
``M = S1 x S2`` and ``Omega = |S1||S2|``; RoleSim reuses ``bj`` with a
constant label function (see ``core/configs.py``).
"""
from __future__ import annotations

import os
import sys
import time
from typing import Optional, Tuple

from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

from ..graphs.model import Graph
from .labels import label_sim_df
from .ops import greedy_matching_sum_col
from .reference import FSimConfig

_VARIANTS = ("s", "dp", "b", "bj", "simrank")


def _norm_expr(variant: str, d1: Column, d2: Column, msum: Column) -> Column:
    """msum / Omega_chi with empty-neighborhood conventions (DESIGN §2)."""
    m = F.coalesce(msum, F.lit(0.0))
    if variant in ("s", "dp"):
        return F.when(d1 == 0, F.lit(1.0)).otherwise(m / d1)
    if variant == "b":
        return F.when((d1 == 0) & (d2 == 0), F.lit(1.0)).otherwise(m / (d1 + d2))
    if variant == "bj":
        return (
            F.when((d1 == 0) & (d2 == 0), F.lit(1.0))
            .when((d1 == 0) | (d2 == 0), F.lit(0.0))
            .otherwise(m / F.sqrt((d1 * d2).cast("double")))
        )
    # simrank: Omega = |S1||S2|; empty neighborhood contributes 0
    return F.when((d1 == 0) | (d2 == 0), F.lit(0.0)).otherwise(m / (d1 * d2))


def _mapping_sum(variant: str, e1d: DataFrame, e2d: DataFrame,
                 lookup: DataFrame) -> DataFrame:
    """Per-(u,v) mapping-operator score sum for one direction.

    ``lookup`` is the previous-iteration score relation renamed to
    ``(x, y, s)``; absence of a pair means it is ineligible (L < theta),
    so inner joins implement the label constraint for free.
    """
    rows = e1d.join(lookup, "x").join(e2d, "y")
    if variant == "s":
        return (
            rows.groupBy("u", "v", "x").agg(F.max("s").alias("best"))
            .groupBy("u", "v").agg(F.sum("best").alias("msum"))
        )
    if variant == "b":
        fwd = (
            rows.groupBy("u", "v", "x").agg(F.max("s").alias("best"))
            .groupBy("u", "v").agg(F.sum("best").alias("fsum"))
        )
        bwd = (
            rows.groupBy("u", "v", "y").agg(F.max("s").alias("best"))
            .groupBy("u", "v").agg(F.sum("best").alias("bsum"))
        )
        return fwd.join(bwd, ["u", "v"]).select(
            "u", "v", (F.col("fsum") + F.col("bsum")).alias("msum")
        )
    if variant == "simrank":
        return rows.groupBy("u", "v").agg(F.sum("s").alias("msum"))
    # dp / bj: greedy matching inside each (u, v) group
    agg = rows.groupBy("u", "v").agg(
        F.collect_list(F.struct("x", "y", "s")).alias("cand")
    )
    return agg.select("u", "v", greedy_matching_sum_col("cand").alias("msum"))


def _update(cfg: FSimConfig, g1: Graph, g2: Graph, cand: DataFrame,
            lookup: DataFrame) -> DataFrame:
    """One Eq.-1 update: ``(u, v, score)`` for every pair of ``cand``.

    ``lookup`` is the score relation ``(x, y, s)`` the neighbor mappings
    read; a pair of ``cand`` that gets no neighbor messages maps nothing.
    """
    def msum(out: bool, name: str) -> DataFrame:
        return _mapping_sum(cfg.variant, g1.neighbors(out, "u", "x"),
                            g2.neighbors(out, "v", "y"),
                            lookup).withColumnRenamed("msum", name)

    v = cfg.variant
    return (
        cand.join(msum(True, "m_out"), ["u", "v"], "left")
        .join(msum(False, "m_in"), ["u", "v"], "left")
        .select(
            "u", "v",
            (cfg.w_out * _norm_expr(v, F.col("do1"), F.col("do2"), F.col("m_out"))
             + cfg.w_in * _norm_expr(v, F.col("di1"), F.col("di2"), F.col("m_in"))
             + cfg.w_label * F.col("lsim")).alias("score"),
        )
    )


def _candidates(spark: SparkSession, g1: Graph, g2: Graph,
                cfg: FSimConfig) -> DataFrame:
    """Candidate pairs ``(u, v, lsim, do1, di1, do2, di2)`` with L >= theta."""
    d1 = g1.degrees().select(
        F.col("id").alias("u"), F.col("label").alias("lab1"),
        F.col("dout").alias("do1"), F.col("din").alias("di1"))
    d2 = g2.degrees().select(
        F.col("id").alias("v"), F.col("label").alias("lab2"),
        F.col("dout").alias("do2"), F.col("din").alias("di2"))
    labs1 = [r["lab1"] for r in d1.select("lab1").distinct().collect()]
    labs2 = [r["lab2"] for r in d2.select("lab2").distinct().collect()]
    lsim = label_sim_df(spark, labs1, labs2, cfg.label_fn, min_sim=cfg.theta)
    if cfg.theta > 0.0:
        c = d1.join(lsim, "lab1").join(d2, "lab2")
    else:
        n1, n2 = g1.nodes.count(), g2.nodes.count()
        assert n1 * n2 <= cfg.max_pairs, (
            f"theta=0 cross product {n1}x{n2} exceeds max_pairs={cfg.max_pairs}; "
            "raise theta or max_pairs")
        c = (d1.crossJoin(d2)
             .join(lsim, ["lab1", "lab2"], "left")
             .withColumn("lsim", F.coalesce("lsim", F.lit(0.0))))
    return c.select("u", "v", "lsim", "do1", "di1", "do2", "di2")


def fsim_spark(
    spark: SparkSession,
    g1: Graph,
    g2: Graph,
    cfg: FSimConfig,
    init: Optional[DataFrame] = None,
    pin_diagonal: bool = False,
    return_frozen: bool = False,
) -> DataFrame | Tuple[DataFrame, DataFrame]:
    """Compute FSim_chi scores for all candidate pairs of (g1, g2).

    Returns a DataFrame ``(u, v, score)`` (plus the frozen-pair frame if
    ``return_frozen``). ``init`` overrides the default ``L(u, v)``
    initialization (used by the SimRank/RoleSim configurations);
    ``pin_diagonal`` re-asserts ``score(u, u) = 1`` each iteration
    (SimRank's fixed diagonal).
    """
    assert cfg.variant in _VARIANTS, cfg.variant
    cand = _candidates(spark, g1, g2, cfg).localCheckpoint()

    # ---- upper-bound updating: freeze pairs with ub < beta at alpha*ub
    frozen = spark.createDataFrame([], schema="u long, v long, score double")
    if cfg.upper_bound:
        unit = cand.select(F.col("u").alias("x"), F.col("v").alias("y"),
                           F.lit(1.0).alias("s"))
        frozen = (
            _update(cfg, g1, g2, cand, unit)
            .filter(F.col("score") < cfg.beta)
            .select("u", "v", (cfg.alpha * F.col("score")).alias("score"))
            .localCheckpoint()
        )
        cand = (
            cand.join(frozen.select("u", "v"), ["u", "v"], "left_anti")
            .localCheckpoint()
        )

    scores = (init if init is not None
              else cand.select("u", "v", F.col("lsim").alias("score")))
    scores = scores.localCheckpoint()

    debug = bool(os.environ.get("REPRO_FSIM_DEBUG"))
    converging = cfg.exact_iters is None
    n_iters = cfg.max_iter if converging else cfg.exact_iters
    prev_delta: Optional[float] = None
    for it in range(n_iters):
        t_iter = time.time()
        lookup = scores.unionByName(frozen).select(
            F.col("u").alias("x"), F.col("v").alias("y"),
            F.col("score").alias("s"))
        new = _update(cfg, g1, g2, cand, lookup)
        if pin_diagonal:
            new = new.withColumn(
                "score",
                F.when(F.col("u") == F.col("v"), F.lit(1.0))
                .otherwise(F.col("score")))
        new = new.localCheckpoint(eager=True)
        delta = None
        if converging:  # exact_iters runs skip this Spark job
            delta = (
                new.join(scores.withColumnRenamed("score", "prev"), ["u", "v"])
                .agg(F.max(F.abs(F.col("score") - F.col("prev"))))
                .first()[0]
            )
        scores = new
        if debug:
            shown = f" delta={delta}" if converging else ""
            print(f"[fsim {cfg.variant}] iter={it + 1}{shown} "
                  f"dt={time.time() - t_iter:.2f}s", file=sys.stderr)
        if not converging:
            continue
        if delta is None or delta < cfg.eps:
            break
        # Oscillation guard: with exact maximum mappings (Theorem 1,
        # C3) delta contracts by >= (w+ + w-) each iteration. The
        # greedy dp/bj approximation can instead settle into a
        # 2-cycle between tied matchings, leaving delta pinned at
        # the cycle amplitude. A delta that stopped contracting
        # (changed < 5% — true contraction shrinks it >= 20% at the
        # paper's weights) is such a cycle: the scores themselves
        # are stable up to the greedy tie, so stop.
        if (cfg.variant in ("dp", "bj")
                and prev_delta is not None and it >= 2
                and abs(delta - prev_delta) < 0.05 * delta):
            if debug:
                print(f"[fsim {cfg.variant}] greedy-tie plateau at "
                      f"delta={delta}; stopping", file=sys.stderr)
            break
        prev_delta = delta
    return (scores, frozen) if return_frozen else scores
