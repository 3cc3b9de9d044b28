"""Dataflow-graph tests: instance cones, forward reachability, signal fan-in."""

import pytest

from repro.verilog.dataflow import DataflowGraph
from repro.verilog.hierarchy import DesignHierarchy
from repro.verilog.parser import parse

from test_hierarchy import DESIGN

#: Two independent leaf chains, so each output's cone is a strict subset of
#: the instances and the queries can tell them apart.
SPLIT = """
module leaf(input a, output y);
  assign y = ~a;
endmodule

module split(input a, input b, output y0, output y1);
  wire t;
  leaf u0 (.a(a), .y(t));
  leaf u1 (.a(t), .y(y0));
  leaf u2 (.a(b), .y(y1));
endmodule
"""


@pytest.fixture
def graph():
    return DataflowGraph(DesignHierarchy(parse(DESIGN), top="top"))


@pytest.fixture
def split():
    return DataflowGraph(DesignHierarchy(parse(SPLIT), top="split"))


def test_instance_nodes(graph, split):
    assert graph.instance_nodes() == {
        "top.stage0", "top.stage0.inner0", "top.stage0.inner1", "top.solo",
    }
    assert split.instance_nodes() == {"split.u0", "split.u1", "split.u2"}


def test_instances_affecting_output(graph, split):
    # q = solo(stage0(p)); stage0 = inner1(inner0(x)).
    assert graph.instances_affecting_output("q") == {
        "top.stage0", "top.stage0.inner0", "top.stage0.inner1", "top.solo",
    }
    assert split.instances_affecting_output("y0") == {"split.u0", "split.u1"}
    assert split.instances_affecting_output("y1") == {"split.u2"}
    assert split.instances_affecting_output("missing") == set()


def test_outputs_affected_by_instance(graph, split):
    assert graph.outputs_affected_by_instance("top.stage0.inner0", ["q"]) == {"q"}
    assert split.outputs_affected_by_instance("split.u0", ["y0", "y1"]) == {"y0"}
    assert split.outputs_affected_by_instance("split.u2", ["y0", "y1"]) == {"y1"}
    assert split.outputs_affected_by_instance("split.nope", ["y0"]) == set()


def test_signal_fanin(graph, split):
    # t inside stage0 is inner0's output: inner0's ports, stage0.x and top.p.
    assert graph.signal_fanin("top.stage0", "t") == {
        ("top.stage0.inner0", "y"),
        ("top.stage0.inner0", "a"),
        ("top.stage0", "x"),
        ("top", "p"),
    }
    assert graph.signal_fanin("top", "p") == set()
    assert split.signal_fanin("split", "y1") == {
        ("split.u2", "y"), ("split.u2", "a"), ("split", "b"),
    }


def test_score_instances_counts_selected_outputs(split):
    assert split.score_instances(["y0", "y1"]) == {
        "split.u0": 1, "split.u1": 1, "split.u2": 1,
    }
    assert split.score_instances(["y1"]) == {
        "split.u0": 0, "split.u1": 0, "split.u2": 1,
    }


def test_every_edge_is_recorded_both_ways(graph):
    assert graph.successors.keys() == graph.predecessors.keys()
    for node, targets in graph.successors.items():
        for target in targets:
            assert node in graph.predecessors[target]
