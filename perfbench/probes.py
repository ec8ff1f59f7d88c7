"""Measurement probes that observe the program from outside.

- :class:`IterTap` captures the ``[fsim ...] iter=...`` lines the engine
  prints to stderr under ``REPRO_FSIM_DEBUG`` and timestamps them, which
  gives the iteration count and per-iteration spans without touching
  the engine.
- :class:`Tracer` keeps spans (name, start, end, parent, job id) in
  memory and computes self time per span name.
- :class:`SparkCounters` reads Spark's own status tracker and status
  store for the jobs of one job group.
- :func:`vm_hwm_mb` reads a process's peak resident set size.
"""
from __future__ import annotations

import io
import re
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

_ITER_RE = re.compile(r"^\[fsim \w+\] iter=\d+ .*dt=([0-9.]+)s")


class IterTap(io.TextIOBase):
    """A stderr stand-in that records the engine's per-iteration lines.

    Each record is ``(t_end, dt)``: ``t_end`` is the ``perf_counter``
    time at which the line was written, i.e. the end of that iteration,
    and ``dt`` the duration the engine printed. Other text is dropped.
    """

    def __init__(self) -> None:
        self._buf = ""
        self.iters: List[Tuple[float, float]] = []

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        now = time.perf_counter()
        self._buf += s
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            m = _ITER_RE.match(line)
            if m:
                self.iters.append((now, float(m.group(1))))
        return len(s)

    def iteration_spans(self) -> List[Tuple[float, float]]:
        """``(start, end)`` per iteration. An iteration starts where the
        previous one's line was written; the first starts ``dt`` before
        its own line."""
        spans = []
        for k, (t_end, dt) in enumerate(self.iters):
            start = self.iters[k - 1][0] if k else t_end - dt
            spans.append((start, t_end))
        return spans


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: str


@dataclass
class Tracer:
    """In-memory span recorder. With ``enabled=False`` it records nothing."""

    enabled: bool
    spans: List[Span] = field(default_factory=list)
    _stack: List[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, job: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, job))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def add(self, name: str, start: float, end: float, parent_name: str,
            job: str) -> None:
        """Record a finished span under the latest span ``parent_name`` of ``job``."""
        if not self.enabled:
            return
        parent = max(i for i, s in enumerate(self.spans)
                     if s.name == parent_name and s.job == job)
        self.spans.append(Span(name, start, end, parent, job))

    def self_times(self, jobs: Sequence[str]) -> Dict[str, float]:
        """Median over ``jobs`` of each span name's self time per job:
        its duration minus the part its children cover."""
        children: Dict[int, List[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s.parent is not None:
                children[s.parent].append(i)
        per_job: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, s in enumerate(self.spans):
            if s.job not in jobs:
                continue
            covered = _union_length(
                [(self.spans[c].start, self.spans[c].end) for c in children[i]])
            per_job[s.name][s.job] += (s.end - s.start) - covered
        return {name: median(v.values()) for name, v in per_job.items()}

    def to_json(self) -> List[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "job": s.job} for s in self.spans]


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


# ------------------------------------------------------------- Spark side

@dataclass
class GroupCounts:
    """Spark work done by the jobs of one job group."""

    jobs: int = 0
    stages: int = 0
    tasks: int = 0
    failed_tasks: int = 0
    shuffle_write_bytes: int = 0
    shuffle_read_bytes: int = 0
    executor_run_s: float = 0.0
    executor_cpu_s: float = 0.0


class SparkCounters:
    """Per-job-group counters read from Spark's status tracker and store.

    Job, stage and task counts come from ``statusTracker`` (stages that
    ran; stages skipped because their shuffle output was reused are not
    counted). Shuffle bytes and executor run/CPU time come from the
    ``AppStatusStore``, whose ``stageList`` takes five arguments from
    PySpark 4.1 on.
    """

    def __init__(self, spark) -> None:
        self._sc = spark.sparkContext
        self._tracker = self._sc.statusTracker()
        self._store = self._sc._jsc.sc().statusStore()

    def group(self, group: str) -> Tuple[GroupCounts, List[int]]:
        c = GroupCounts()
        stage_ids: List[int] = []
        for jid in self._tracker.getJobIdsForGroup(group):
            info = self._tracker.getJobInfo(jid)
            if info is None:
                continue
            c.jobs += 1
            for sid in info.stageIds:
                st = self._tracker.getStageInfo(sid)
                if st is None or st.numCompletedTasks + st.numFailedTasks == 0:
                    continue
                c.stages += 1
                c.tasks += st.numCompletedTasks + st.numFailedTasks
                c.failed_tasks += st.numFailedTasks
                stage_ids.append(int(sid))
        return c, stage_ids

    def fill_from_store(self, groups: Dict[str, Tuple[GroupCounts, List[int]]]) -> None:
        """Add shuffle bytes and executor time to each group's counts, in
        one pass over the stages in the store."""
        owner = {sid: c for c, sids in groups.values() for sid in sids}
        default4 = getattr(self._store, "stageList$default$4")()
        stages = self._store.stageList(None, False, False, default4, None)
        n = stages.size()
        for i in range(n):
            sd = stages.apply(i)
            c = owner.get(int(sd.stageId()))
            if c is None:
                continue
            c.shuffle_write_bytes += int(sd.shuffleWriteBytes())
            c.shuffle_read_bytes += int(sd.shuffleReadBytes())
            c.executor_run_s += sd.executorRunTime() / 1e3
            c.executor_cpu_s += sd.executorCpuTime() / 1e9


def jvm_pid(spark) -> int:
    return int(spark._jvm.java.lang.ProcessHandle.current().pid())


def vm_hwm_mb(pid: str | int = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
