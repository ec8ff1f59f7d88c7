"""FSimX engine benchmark: one seeded workload, timed through the public API.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload align-bj --seed 0 --seconds 10 --trace 0

One driver process runs Spark ``local[4]`` with the session settings of
``repro.tables.runner.make_session`` and runs jobs back to back (closed
loop, one client) for ``--seconds``. A job is ``fsim_spark`` ->
``toPandas`` -> the workload's application step and quality score.
Every job is checked against the pure-Python reference
(``core.reference.fsim_reference``), which runs once per process outside
every timed region.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced jobs and prints the per-layer metrics: spans around
each layer call, Spark's own counters per job group, workload-shape
counts from the benchmark's own DataFrame queries, self time per layer
and the tracing overhead. The last stdout line is one JSON object;
the exit code is non-zero when any job fails the correctness gate.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shlex
import sys
import time
import traceback
from contextlib import redirect_stderr
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
CORES = 4
DRIVER_MEM = "2g"  # also the initial heap, so peak RSS does not follow G1 resizing
SETUP_REPS = 3   # input generation + load repetitions inside setup_s
WARMUP_ITERS = 4  # the warm-up job stops after this many iterations
RETAINED = 100000  # Spark UI/status-store retention, so no job is truncated

END_TO_END_UNITS = {
    "setup_s": "s", "job_s": "s", "pair_iters_per_s": "1/s", "iters": "count",
    "quality_pct": "%", "peak_rss_mb": "MB",
}


def _configure_environment() -> None:
    """Pin the Spark session and keep every file the run writes in WORK."""
    for sub in ("tmp", "spark", "warehouse"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    tmp = WORK / "tmp"
    java_opts = f"-Xms{DRIVER_MEM} -Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ.update({
        "SPARK_MASTER": f"local[{CORES}]",
        "SPARK_DRIVER_MEM": DRIVER_MEM,
        "SPARK_LOCAL_DIRS": str(WORK / "spark"),
        "TMPDIR": str(tmp),
        "REPRO_FSIM_DEBUG": "1",  # the engine's per-iteration stderr lines
        "PYSPARK_SUBMIT_ARGS": " ".join([
            f"--master local[{CORES}]",
            f"--driver-memory {DRIVER_MEM}",
            "--driver-java-options", shlex.quote(java_opts),
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.ui.retainedJobs={RETAINED}",
            f"--conf spark.ui.retainedStages={RETAINED}",
            f"--conf spark.sql.warehouse.dir={shlex.quote(str(WORK / 'warehouse'))}",
            "pyspark-shell",
        ]),
    })
    os.environ.pop("SPARK_SHUFFLE_PARTITIONS", None)  # make_session's 16


@dataclasses.dataclass
class Job:
    id: str
    traced: bool
    job_s: float
    call_s: float
    collect_s: float
    post_s: float
    iter_s: list  # duration of each engine iteration
    pairs: int
    quality: float
    scores: object  # the engine's checkpointed (u, v, score) frame
    frozen: object
    error: str = ""
    max_abs_err: float = 0.0

    @property
    def iters(self) -> int:
        return len(self.iter_s)


def run_job(spark, wl, cfg, tracer, jid: str, traced: bool):
    """One timed job. Spark jobs of the engine call run under job group
    ``<jid>-fsim``, the collection under ``<jid>-collect``."""
    from repro.core.fsim import fsim_spark
    from probes import IterTap

    sc = spark.sparkContext
    tap = IterTap()
    sc.setJobGroup(f"{jid}-fsim", jid)
    with tracer.span("job", jid):
        t0 = time.perf_counter()
        with tracer.span("fsim_spark", jid), redirect_stderr(tap):
            scores, frozen = fsim_spark(spark, wl.g1, wl.g2, cfg, return_frozen=True)
        t1 = time.perf_counter()
        sc.setJobGroup(f"{jid}-collect", jid)
        with tracer.span("harness.collect", jid):
            pdf = scores.toPandas()
        t2 = time.perf_counter()
        with tracer.span("harness.post", jid):
            quality = wl.quality(pdf)
        t3 = time.perf_counter()
    sc.setJobGroup("untimed", "outside every timed region")
    spans = tap.iteration_spans()
    for s, e in spans:
        tracer.add("fsim.iter", s, e, "fsim_spark", jid)
    job = Job(jid, traced, t3 - t0, t1 - t0, t2 - t1, t3 - t2,
              [e - s for s, e in spans], len(pdf), quality, scores, frozen)
    return job, pdf


def measure(spark, wl, seconds: float, tracer):
    """Closed loop: jobs back to back until ``seconds`` have passed, at
    least one. With an enabled ``tracer``, untraced and traced jobs
    alternate, untraced first, and at least three run, so the untraced
    median brackets the traced job and the tracing overhead is not
    confounded with the warm-up trend. Every job is checked against the
    reference."""
    import pandas as pd
    from probes import Tracer

    trace, off = tracer.enabled, Tracer(False)
    jobs = []
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds or len(jobs) < (3 if trace else 1):
        k = len(jobs)
        traced = trace and k % 2 == 1
        jid = f"{wl.name}-{k}"
        try:
            job, pdf = run_job(spark, wl, wl.cfg, tracer if traced else off, jid, traced)
            frozen_pd = (job.frozen.toPandas() if wl.cfg.upper_bound
                         else pd.DataFrame({"u": [], "v": [], "score": []}))
            job.max_abs_err, job.error = wl.check(pdf, frozen_pd, job.iters)
        except Exception:  # a failing job is counted, never skipped
            traceback.print_exc()
            job = Job(jid, traced, 0.0, 0.0, 0.0, 0.0, [], 0, 0.0, None, None,
                      error="job raised")
        if job.error:
            print(f"[perfbench] {jid}: correctness gate failed: {job.error}",
                  file=sys.stderr)
        else:
            print(f"[perfbench] {jid}: job_s={job.job_s:.3f} iters={job.iters} "
                  f"gate ok (max_abs_err={job.max_abs_err:.2g})", file=sys.stderr)
        jobs.append(job)
    return jobs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "core" / "fsim.py").is_file():
        print(f"[perfbench] no program sources under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    _configure_environment()

    import layers
    from probes import Tracer, jvm_pid, vm_hwm_mb
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"[perfbench] unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    # ---- setup: session, inputs (generated and loaded SETUP_REPS times), warm-up
    t0 = time.perf_counter()
    from repro.tables.runner import make_session
    spark = make_session(f"perfbench-{args.workload}")
    session_s = time.perf_counter() - t0
    try:
        wl = WORKLOADS[args.workload](args.seed)
        gen_s, load_s = [], []
        tracer = Tracer(args.trace == 1)
        for _ in range(SETUP_REPS):
            with tracer.span("setup", "setup"):
                t = time.perf_counter()
                with tracer.span("graphs.gen", "setup"):
                    wl.generate()
                t1 = time.perf_counter()
                with tracer.span("graphs.load", "setup"):
                    wl.load(spark)
                    for g in (wl.g1, wl.g2):
                        g.nodes.count(), g.edges.count()
                t2 = time.perf_counter()
            gen_s.append(t1 - t)
            load_s.append(t2 - t1)
        t = time.perf_counter()
        warm_cfg = dataclasses.replace(wl.cfg, max_iter=WARMUP_ITERS)
        run_job(spark, wl, warm_cfg, Tracer(False), f"{wl.name}-warmup", False)
        warmup_s = time.perf_counter() - t
        print(f"[perfbench] session_s={session_s:.3f} gen_load_s="
              f"{[round(a + b, 3) for a, b in zip(gen_s, load_s)]} warmup_s={warmup_s:.3f}",
              file=sys.stderr)
        setup_s = session_s + median([a + b for a, b in zip(gen_s, load_s)]) + warmup_s

        # ---- reference, outside every timed region and outside setup_s
        t = time.perf_counter()
        wl.run_reference()
        reference_s = time.perf_counter() - t

        jobs = measure(spark, wl, args.seconds, tracer)
        failed = sum(1 for j in jobs if j.error)
        ok = [j for j in jobs if not j.error]

        if args.trace == 0:
            metrics = {
                "setup_s": setup_s,
                "job_s": median([j.job_s for j in ok]) if ok else float("nan"),
                "pair_iters_per_s": (median([j.pairs * j.iters / j.call_s for j in ok])
                                     if ok else float("nan")),
                "iters": median([j.iters for j in ok]) if ok else float("nan"),
                "quality_pct": median([j.quality for j in ok]) if ok else float("nan"),
                "peak_rss_mb": vm_hwm_mb(jvm_pid(spark)) + vm_hwm_mb(),
            }
            units = END_TO_END_UNITS
        else:
            metrics, units = layers.per_layer(
                spark, wl, jobs, tracer, cores=CORES, gen_s=gen_s, load_s=load_s,
                reference_s=reference_s)
            out = WORK / f"trace-{wl.name}-seed{args.seed}.json"
            out.write_text(json.dumps({"workload": wl.name, "seed": args.seed,
                                       "spans": tracer.to_json()}))
            print(f"[perfbench] spans written to {out}", file=sys.stderr)

        print(f"workload {wl.name}  seed {args.seed} (generator seed {wl.base_seed})  "
              f"jobs {len(jobs)}  failed {failed}  setup_s {setup_s:.3f}  "
              f"reference_s {reference_s:.3f}")
        for name, value in metrics.items():
            print(f"  {name:28s} {value:16.6g} {units[name]}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(jobs),
            "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        }))
        return 0 if failed == 0 else 1
    finally:
        _stop(spark)


def _stop(spark) -> None:
    """Stop Spark and wait for the JVM to exit: the gateway JVM ends when
    its stdin closes."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        gateway.proc.stdin.close()
        gateway.proc.wait(timeout=60)


if __name__ == "__main__":
    sys.exit(main())
