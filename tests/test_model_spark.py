"""Graph model on Spark: construction, degrees, stats — degree logic is
cross-checked against DuckDB via the SQL oracle."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs.generators import labeled_powerlaw_pd
from repro.graphs.model import AdjGraph, Graph
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def g(spark):
    nodes, edges = labeled_powerlaw_pd(80, 220, 5, seed=21)
    return Graph.from_pandas(spark, nodes, edges), nodes, edges


class TestConstruction:
    def test_counts(self, g):
        graph, nodes, edges = g
        assert graph.nodes.count() == len(nodes)
        assert graph.edges.count() == len(edges)

    def test_from_edge_list(self, spark):
        graph = Graph.from_edge_list(spark, {0: "A", 1: "B"}, [(0, 1)])
        assert graph.nodes.count() == 2
        assert graph.edges.count() == 1

    def test_empty_edges(self, spark):
        graph = Graph.from_edge_list(spark, {0: "A"}, [])
        assert graph.edges.count() == 0
        row = graph.degrees().first()
        assert row["dout"] == 0 and row["din"] == 0

    def test_validate_ok(self, g):
        g[0].validate()

    def test_validate_catches_dangling(self, spark):
        graph = Graph.from_pandas(
            spark,
            pd.DataFrame({"id": [0], "label": ["A"]}),
            pd.DataFrame({"src": [0], "dst": [99]}),
        )
        with pytest.raises(AssertionError):
            graph.validate()


class TestDegreesOracle:
    def test_degrees_vs_duckdb(self, spark, g):
        graph, nodes, edges = g
        got = graph.degrees().select("id", "dout", "din")
        assert_equivalent(
            got,
            """
            SELECT n.id,
                   coalesce(o.c, 0) AS dout,
                   coalesce(i.c, 0) AS din
            FROM nodes n
            LEFT JOIN (SELECT src, count(*) c FROM edges GROUP BY src) o
              ON n.id = o.src
            LEFT JOIN (SELECT dst, count(*) c FROM edges GROUP BY dst) i
              ON n.id = i.dst
            """,
            nodes=nodes, edges=edges,
        )

    def test_out_in_edge_views_vs_duckdb(self, spark, g):
        graph, nodes, edges = g
        assert_equivalent(graph.neighbors(True, "u", "nbr"),
                          "SELECT src AS u, dst AS nbr FROM edges",
                          edges=edges)
        assert_equivalent(graph.neighbors(False, "u", "nbr"),
                          "SELECT dst AS u, src AS nbr FROM edges",
                          edges=edges)

    def test_oracle_catches_wrong_result(self, spark, g):
        # 1% error: beyond assert_frame_equal's default rtol, so the
        # oracle must flag it rather than round it away
        graph, nodes, edges = g
        sql = """
            SELECT n.id, coalesce(o.c, 0) AS dout
            FROM nodes n
            LEFT JOIN (SELECT src, count(*) c FROM edges GROUP BY src) o
              ON n.id = o.src
            """
        dout = graph.degrees().select("id", "dout")
        assert_equivalent(dout, sql, nodes=nodes, edges=edges)
        wrong = dout.select("id", (F.col("dout") * 1.01).alias("dout"))
        with pytest.raises(AssertionError):
            assert_equivalent(wrong, sql, nodes=nodes, edges=edges)


class TestStats:
    def test_stats_fields(self, g):
        graph, nodes, edges = g
        s = graph.stats()
        assert s["V"] == len(nodes)
        assert s["E"] == len(edges)
        assert s["labels"] == nodes.label.nunique()
        assert s["avg_degree"] == pytest.approx(len(edges) / len(nodes))
        assert s["max_out_degree"] == edges.src.value_counts().iloc[0]
        assert s["max_in_degree"] == edges.dst.value_counts().iloc[0]


class TestAdjGraph:
    def test_round_trip(self, g):
        graph, nodes, edges = g
        adj = graph.to_adj()
        assert set(adj.nodes()) == set(nodes.id)
        assert sum(len(v) for v in adj.out.values()) == len(edges)
        assert sum(len(v) for v in adj.inn.values()) == len(edges)

    def test_undirected_dedup(self):
        nodes = pd.DataFrame({"id": [0, 1], "label": ["A", "B"]})
        edges = pd.DataFrame({"src": [0, 1], "dst": [1, 0]})
        adj = AdjGraph.build(nodes, edges)
        assert adj.undirected(0) == [1]
