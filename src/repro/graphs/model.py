"""Labeled directed graph on Spark DataFrames.

The paper's data model (Section 2): ``G = (V, E, l)`` with ``V`` a node
set, ``E`` directed edges and ``l : V -> Sigma`` a labeling function.
Here a :class:`Graph` holds two DataFrames:

- ``nodes``: columns ``id:long, label:string`` (one row per node),
- ``edges``: columns ``src:long, dst:long`` (one row per directed edge).

All downstream algorithms (FSim, exact simulation, k-bisimulation, the
case-study baselines) consume this representation. Helpers compute
degrees and the Table-4 statistics, and convert to/from pandas for the
small driver-side kernels (toy graphs, per-query baselines).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

NODE_SCHEMA = "id long, label string"
EDGE_SCHEMA = "src long, dst long"


@dataclass(frozen=True)
class Graph:
    """A node-labeled directed graph backed by Spark DataFrames."""

    nodes: DataFrame
    edges: DataFrame

    # ---------------------------------------------------------------- build
    @staticmethod
    def from_pandas(
        spark: SparkSession, nodes: pd.DataFrame, edges: pd.DataFrame
    ) -> "Graph":
        """Create a Graph from pandas frames (``id,label`` / ``src,dst``)."""
        n = spark.createDataFrame(nodes[["id", "label"]], schema=NODE_SCHEMA)
        if len(edges) == 0:
            e = spark.createDataFrame([], schema=EDGE_SCHEMA)
        else:
            e = spark.createDataFrame(edges[["src", "dst"]], schema=EDGE_SCHEMA)
        return Graph(n, e)

    @staticmethod
    def from_edge_list(
        spark: SparkSession,
        labels: Dict[int, str],
        edge_list: List[Tuple[int, int]],
    ) -> "Graph":
        """Create a Graph from a ``{id: label}`` dict and ``(src, dst)`` list."""
        nodes = pd.DataFrame(
            {"id": list(labels.keys()), "label": list(labels.values())}
        )
        edges = pd.DataFrame(edge_list, columns=["src", "dst"], dtype="int64")
        return Graph.from_pandas(spark, nodes, edges)

    # ---------------------------------------------------------------- views
    def neighbors(self, out: bool, node: str, nbr: str) -> DataFrame:
        """Edges as ``(node, nbr)``: ``nbr`` is an out-neighbor of ``node``
        if ``out``, else an in-neighbor."""
        src, dst = ("src", "dst") if out else ("dst", "src")
        return self.edges.select(F.col(src).alias(node), F.col(dst).alias(nbr))

    def degrees(self) -> DataFrame:
        """Per-node out/in degrees: ``(id, label, dout, din)``; absent = 0."""
        dout = self.edges.groupBy(F.col("src").alias("id")).agg(
            F.count("*").alias("dout")
        )
        din = self.edges.groupBy(F.col("dst").alias("id")).agg(
            F.count("*").alias("din")
        )
        return (
            self.nodes.join(dout, "id", "left")
            .join(din, "id", "left")
            .select(
                "id",
                "label",
                F.coalesce("dout", F.lit(0)).cast("long").alias("dout"),
                F.coalesce("din", F.lit(0)).cast("long").alias("din"),
            )
        )

    def stats(self) -> Dict[str, float]:
        """Table-4 statistics: |V|, |E|, |Sigma|, avg degree, max out/in degree."""
        n_nodes = self.nodes.count()
        n_edges = self.edges.count()
        n_labels = self.nodes.select("label").distinct().count()
        row = self.degrees().agg(
            F.max("dout").alias("max_dout"), F.max("din").alias("max_din")
        ).first()
        # the paper's d_G is |E| / |V| (cf. Yeast: 7182/2361 ~= 3)
        avg_deg = (n_edges / n_nodes) if n_nodes else 0.0
        return {
            "V": n_nodes,
            "E": n_edges,
            "labels": n_labels,
            "avg_degree": avg_deg,
            "max_out_degree": int(row["max_dout"] or 0),
            "max_in_degree": int(row["max_din"] or 0),
        }

    def validate(self) -> None:
        """Assert structural invariants: unique ids, edges reference nodes."""
        n = self.nodes.count()
        assert self.nodes.select("id").distinct().count() == n, "duplicate node ids"
        ids = self.nodes.select("id")
        dangling = (
            self.edges.join(ids, self.edges.src == ids.id, "left_anti").count()
            + self.edges.join(ids, self.edges.dst == ids.id, "left_anti").count()
        )
        assert dangling == 0, f"{dangling} dangling edge endpoints"

    # -------------------------------------------------------------- driver
    def to_pandas(self) -> Tuple[pd.DataFrame, pd.DataFrame]:
        """Collect (nodes, edges) to pandas — for small driver-side kernels."""
        return self.nodes.toPandas(), self.edges.toPandas()

    def to_adj(self) -> "AdjGraph":
        """Collect into a driver-side adjacency representation."""
        nodes_pd, edges_pd = self.to_pandas()
        return AdjGraph.build(nodes_pd, edges_pd)


@dataclass
class AdjGraph:
    """Driver-side adjacency-list view used by per-query Python kernels.

    ``out``/``inn`` map node id -> list of out-/in-neighbors; ``label``
    maps node id -> label string. Built once, then broadcast to
    executors for workload-parallel baselines (strong simulation, TSpan,
    NAGA-like, G-Finder-like).
    """

    label: Dict[int, str]
    out: Dict[int, List[int]]
    inn: Dict[int, List[int]]

    @staticmethod
    def build(nodes_pd: pd.DataFrame, edges_pd: pd.DataFrame) -> "AdjGraph":
        label = dict(zip(nodes_pd["id"].astype(int), nodes_pd["label"]))
        out: Dict[int, List[int]] = {i: [] for i in label}
        inn: Dict[int, List[int]] = {i: [] for i in label}
        for s, d in zip(edges_pd["src"].astype(int), edges_pd["dst"].astype(int)):
            out[s].append(d)
            inn[d].append(s)
        return AdjGraph(label, out, inn)

    def nodes(self) -> List[int]:
        return list(self.label.keys())

    def undirected(self, u: int) -> List[int]:
        """Neighbors ignoring direction (deduplicated)."""
        return sorted(set(self.out[u]) | set(self.inn[u]))
