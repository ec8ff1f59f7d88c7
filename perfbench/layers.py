"""Per-layer metrics of a traced run.

Everything here runs after the timed jobs. Workload-shape counts come
from the benchmark's own DataFrame queries over the generated inputs and
the engine's (gate-checked) output; Spark counters come from the status
tracker and store, scoped by each traced job's job group.
"""
from __future__ import annotations

import time
from statistics import median
from typing import Dict, List, Tuple

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from probes import SparkCounters, jvm_pid, vm_hwm_mb
from repro.core.ops import greedy_matching_sum_col

FOLD_REPS = 5  # timed evaluations of the fold and of its baseline scan

UNITS = {
    "graphs.gen_s": "s", "graphs.load_s": "s",
    "fsim.call_s": "s", "fsim.iter_s": "s", "fsim.prep_s": "s",
    "fsim.candidates": "count", "fsim.frozen": "count", "fsim.frozen_ratio": "ratio",
    "fsim.message_rows": "count",
    "ops.fold_groups": "count", "ops.fold_mean_cands": "count",
    "ops.fold_max_cands": "count", "ops.fold_s": "s",
    "spark.jobs": "count", "spark.stages": "count", "spark.tasks": "count",
    "spark.failed_tasks": "count", "spark.jobs_per_iter": "count",
    "spark.busy_ratio": "ratio", "spark.shuffle_write_bytes": "B",
    "spark.shuffle_read_bytes": "B", "spark.executor_run_s": "s",
    "spark.executor_cpu_s": "s", "spark.peak_jvm_rss_mb": "MB",
    "harness.collect_s": "s", "harness.post_s": "s",
    "reference.run_s": "s", "reference.max_abs_err": "score",
    "reference.tie_order_err": "score",
    "error_rate": "ratio",
    "self.job_s": "s", "self.fsim_spark_s": "s", "self.fsim_iter_s": "s",
    "self.harness_collect_s": "s", "self.harness_post_s": "s",
    "trace.overhead_s": "s",
}


def _lookup(job) -> DataFrame:
    """The engine's score relation as the loop sees it: active and frozen
    pairs, renamed ``(x, y, s)``."""
    return (job.scores.unionByName(job.frozen)
            .select(F.col("u").alias("x"), F.col("v").alias("y"),
                    F.col("score").alias("s")))


def candidate_count(wl) -> int:
    """Pairs with L(u, v) >= theta under the indicator label function."""
    if wl.cfg.theta == 0.0:
        return wl.g1.nodes.count() * wl.g2.nodes.count()
    n1 = wl.g1.nodes.groupBy("label").agg(F.count("*").alias("n1"))
    n2 = wl.g2.nodes.groupBy("label").agg(F.count("*").alias("n2"))
    return int(n1.join(n2, "label").agg(F.sum(F.col("n1") * F.col("n2"))).first()[0] or 0)


def message_rows(wl, lookup: DataFrame) -> int:
    """Rows of E1 |X| S |X| E2 per iteration, both directions: an out-edge
    row exists per (u -> x, v -> y, (x, y) in S), so a pair (x, y)
    contributes din1(x) * din2(y) rows out and dout1(x) * dout2(y) in."""
    d1 = wl.g1.degrees().select(F.col("id").alias("x"), F.col("dout").alias("o1"),
                                F.col("din").alias("i1"))
    d2 = wl.g2.degrees().select(F.col("id").alias("y"), F.col("dout").alias("o2"),
                                F.col("din").alias("i2"))
    row = (lookup.join(d1, "x").join(d2, "y")
           .agg(F.sum(F.col("i1") * F.col("i2") + F.col("o1") * F.col("o2")))
           .first())
    return int(row[0] or 0)


def fold_stats(wl, lookup: DataFrame) -> Tuple[int, float, int, float]:
    """The dp/bj greedy-matching fold on the last iteration's candidate
    arrays: group count, mean and max array size, and the fold's time
    over a scan of the same materialised arrays (so the join and the
    ``collect_list`` that build them are not counted)."""
    def arrays(src: str, dst: str) -> DataFrame:
        e1 = wl.g1.edges.select(F.col(src).alias("u"), F.col(dst).alias("x"))
        e2 = wl.g2.edges.select(F.col(src).alias("v"), F.col(dst).alias("y"))
        return (e1.join(lookup, "x").join(e2, "y").groupBy("u", "v")
                .agg(F.collect_list(F.struct("x", "y", "s")).alias("cand")))

    cand = arrays("src", "dst").unionByName(arrays("dst", "src")).localCheckpoint(eager=True)
    row = cand.agg(F.count("*"), F.avg(F.size("cand")), F.max(F.size("cand"))).first()

    def timed(col) -> float:
        ts = []
        for _ in range(FOLD_REPS):
            t = time.perf_counter()
            cand.select(col.alias("m")).agg(F.sum("m")).collect()
            ts.append(time.perf_counter() - t)
        return median(ts)

    base = timed(F.size("cand"))
    fold = timed(greedy_matching_sum_col("cand"))
    return int(row[0]), float(row[1] or 0.0), int(row[2] or 0), fold - base


def per_layer(spark, wl, jobs, tracer, *, cores: int, gen_s: List[float],
              load_s: List[float], reference_s: float):
    """All per-layer metrics of a traced run, with their units."""
    ok = [j for j in jobs if not j.error]
    traced = [j for j in ok if j.traced]
    untraced = [j for j in ok if not j.traced]
    if not traced:
        raise RuntimeError("no traced job passed the correctness gate")
    last = traced[-1]

    counters = SparkCounters(spark)
    groups = {j.id: counters.group(f"{j.id}-fsim") for j in traced}
    counters.fill_from_store(groups)
    per_job = [(groups[j.id][0], j) for j in traced]

    lookup = _lookup(last)
    candidates = candidate_count(wl)
    frozen = int(last.frozen.count())
    if wl.cfg.variant in ("dp", "bj"):
        fold_groups, fold_mean, fold_max, fold_s = fold_stats(wl, lookup)
    else:  # s / b / simrank reduce with groupBy aggregates; no fold runs
        fold_groups, fold_mean, fold_max, fold_s = 0, 0.0, 0, 0.0

    self_t = tracer.self_times([j.id for j in traced])
    m: Dict[str, float] = {
        "graphs.gen_s": median(gen_s),
        "graphs.load_s": median(load_s),
        "fsim.call_s": median([j.call_s for j in traced]),
        "fsim.iter_s": median([t for j in traced for t in j.iter_s]),
        "fsim.prep_s": median([j.call_s - sum(j.iter_s) for j in traced]),
        "fsim.candidates": candidates,
        "fsim.frozen": frozen,
        "fsim.frozen_ratio": frozen / candidates,
        "fsim.message_rows": message_rows(wl, lookup),
        "ops.fold_groups": fold_groups,
        "ops.fold_mean_cands": fold_mean,
        "ops.fold_max_cands": fold_max,
        "ops.fold_s": fold_s,
        "spark.jobs": median([c.jobs for c, _ in per_job]),
        "spark.stages": median([c.stages for c, _ in per_job]),
        "spark.tasks": median([c.tasks for c, _ in per_job]),
        "spark.failed_tasks": median([c.failed_tasks for c, _ in per_job]),
        "spark.jobs_per_iter": median([c.jobs / j.iters for c, j in per_job]),
        "spark.busy_ratio": median([c.executor_run_s / (cores * j.call_s)
                                    for c, j in per_job]),
        "spark.shuffle_write_bytes": median([c.shuffle_write_bytes for c, _ in per_job]),
        "spark.shuffle_read_bytes": median([c.shuffle_read_bytes for c, _ in per_job]),
        "spark.executor_run_s": median([c.executor_run_s for c, _ in per_job]),
        "spark.executor_cpu_s": median([c.executor_cpu_s for c, _ in per_job]),
        "spark.peak_jvm_rss_mb": vm_hwm_mb(jvm_pid(spark)),
        "harness.collect_s": median([j.collect_s for j in traced]),
        "harness.post_s": median([j.post_s for j in traced]),
        "reference.run_s": reference_s,
        "reference.max_abs_err": max(j.max_abs_err for j in ok),
        "reference.tie_order_err": wl.tie_order_err(),
        "error_rate": (len(jobs) - len(ok)) / len(jobs),
        "self.job_s": self_t.get("job", 0.0),
        "self.fsim_spark_s": self_t.get("fsim_spark", 0.0),
        "self.fsim_iter_s": self_t.get("fsim.iter", 0.0),
        "self.harness_collect_s": self_t.get("harness.collect", 0.0),
        "self.harness_post_s": self_t.get("harness.post", 0.0),
        "trace.overhead_s": (median([j.job_s for j in traced])
                             - median([j.job_s for j in untraced])),
    }
    return m, UNITS
