"""Dataflow analysis of a hierarchical Verilog design.

ALICE's module-filtering phase (Algorithm 1) needs to know, for each selected
top-level output, which module instances influence that output.  This module
builds a signal-level dataflow graph that spans the whole hierarchy: signals
are scoped by instance path, instances appear as explicit graph nodes, and
reachability queries answer "which instances sit in the transitive fan-in of
this output?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from . import ast
from .ast import expression_signals, lvalue_signals
from .hierarchy import DesignHierarchy


class DataflowError(Exception):
    """Raised when the dataflow graph cannot be constructed."""


def _sig(scope: str, name: str) -> tuple[str, str, str]:
    return ("sig", scope, name)


def _inst(path: str) -> tuple[str, str]:
    return ("inst", path)


def _reachable(edges: dict[tuple, set[tuple]], start: tuple) -> set[tuple]:
    """Nodes reachable from ``start`` along ``edges``, excluding ``start``."""
    seen = {start}
    frontier = [start]
    while frontier:
        for node in edges[frontier.pop()]:
            if node not in seen:
                seen.add(node)
                frontier.append(node)
    seen.discard(start)
    return seen


@dataclass
class AlwaysSummary:
    """Conservative read/write summary of a procedural block."""

    reads: set[str]
    writes: set[str]


def summarize_statement(stmt: Optional[ast.Statement]) -> AlwaysSummary:
    """Collect the signals read and written by a procedural statement tree."""
    reads: set[str] = set()
    writes: set[str] = set()

    def visit(node: Optional[ast.Statement], extra_reads: set[str]) -> None:
        if node is None:
            return
        if isinstance(node, (ast.BlockingAssign, ast.NonBlockingAssign)):
            writes.update(lvalue_signals(node.lhs))
            reads.update(expression_signals(node.rhs))
            reads.update(extra_reads)
            # Index expressions of the lvalue are also reads.
            if isinstance(node.lhs, (ast.BitSelect, ast.PartSelect)):
                for child in node.lhs.children():
                    if child is not node.lhs.target:
                        reads.update(expression_signals(child))
        elif isinstance(node, ast.Block):
            for sub in node.statements:
                visit(sub, extra_reads)
        elif isinstance(node, ast.If):
            cond_reads = expression_signals(node.cond)
            reads.update(cond_reads)
            visit(node.then_stmt, extra_reads | cond_reads)
            visit(node.else_stmt, extra_reads | cond_reads)
        elif isinstance(node, ast.For):
            cond_reads = expression_signals(node.cond)
            reads.update(cond_reads)
            visit(node.init, extra_reads)
            visit(node.body, extra_reads | cond_reads)
            visit(node.step, extra_reads | cond_reads)
        elif isinstance(node, ast.Case):
            sel_reads = expression_signals(node.expr)
            reads.update(sel_reads)
            for item in node.items:
                item_reads = set(sel_reads)
                if item.conditions:
                    for cond in item.conditions:
                        item_reads |= expression_signals(cond)
                reads.update(item_reads)
                visit(item.statement, extra_reads | item_reads)
        else:
            raise DataflowError(
                f"unsupported statement node {type(node).__name__} in dataflow"
            )

    visit(stmt, set())
    return AlwaysSummary(reads=reads, writes=writes)


class DataflowGraph:
    """Hierarchy-wide dataflow graph of a design.

    Nodes are either ``("sig", scope_path, signal_name)`` or
    ``("inst", instance_path)``.  A directed edge ``a -> b`` means "a feeds b";
    ``successors`` and ``predecessors`` hold each node's outgoing and incoming
    neighbours (every node has an entry in both).
    """

    def __init__(self, hierarchy: DesignHierarchy):
        self.hierarchy = hierarchy
        self.source = hierarchy.source
        self.top = hierarchy.top
        self.successors: dict[tuple, set[tuple]] = {}
        self.predecessors: dict[tuple, set[tuple]] = {}
        self._build_scope(self.source.module(self.top), self.top)

    def _add_node(self, node: tuple) -> None:
        if node not in self.successors:
            self.successors[node] = set()
            self.predecessors[node] = set()

    def _add_edge(self, source: tuple, target: tuple) -> None:
        self._add_node(source)
        self._add_node(target)
        self.successors[source].add(target)
        self.predecessors[target].add(source)

    # -- construction -----------------------------------------------------------

    def _build_scope(self, module: ast.Module, scope: str) -> None:
        for item in module.items:
            if isinstance(item, ast.Assign):
                self._add_assign(scope, item)
            elif isinstance(item, ast.Always):
                self._add_always(scope, item)
            elif isinstance(item, ast.Instance):
                self._add_instance(scope, item)
            # Declarations and parameters introduce no dataflow edges.

    def _add_assign(self, scope: str, item: ast.Assign) -> None:
        targets = lvalue_signals(item.lhs)
        sources = expression_signals(item.rhs)
        # Select indices on the lvalue are read as well.
        if isinstance(item.lhs, (ast.BitSelect, ast.PartSelect)):
            for child in item.lhs.children():
                if child is not item.lhs.target:
                    sources |= expression_signals(child)
        for target in targets:
            for source in sources:
                self._add_edge(_sig(scope, source), _sig(scope, target))
            self._add_node(_sig(scope, target))

    def _add_always(self, scope: str, item: ast.Always) -> None:
        summary = summarize_statement(item.statement)
        reads = set(summary.reads)
        for sens in item.sensitivity:
            if sens.signal is not None and sens.edge is None:
                reads |= expression_signals(sens.signal)
        for target in summary.writes:
            for source in reads:
                self._add_edge(_sig(scope, source), _sig(scope, target))
            self._add_node(_sig(scope, target))

    def _add_instance(self, scope: str, inst: ast.Instance) -> None:
        child_scope = f"{scope}.{inst.instance_name}"
        inst_node = _inst(child_scope)
        self._add_node(inst_node)

        if not self.source.has_module(inst.module_name):
            # Black box: connect conservatively in both directions.
            for conn in inst.connections:
                if conn.expr is None:
                    continue
                for signal in expression_signals(conn.expr):
                    self._add_edge(_sig(scope, signal), inst_node)
                    self._add_edge(inst_node, _sig(scope, signal))
            return

        child_module = self.source.module(inst.module_name)
        connections = self._resolve_connections(child_module, inst)
        for port_name, expr in connections.items():
            port = child_module.port(port_name)
            if port is None or expr is None:
                continue
            parent_signals = expression_signals(expr)
            child_node = _sig(child_scope, port_name)
            if port.direction == "input":
                for signal in parent_signals:
                    self._add_edge(_sig(scope, signal), child_node)
                self._add_edge(child_node, inst_node)
            elif port.direction == "output":
                for signal in parent_signals:
                    self._add_edge(child_node, _sig(scope, signal))
                self._add_edge(inst_node, child_node)
            else:  # inout: conservative, both directions
                for signal in parent_signals:
                    self._add_edge(_sig(scope, signal), child_node)
                    self._add_edge(child_node, _sig(scope, signal))
                self._add_edge(inst_node, child_node)
                self._add_edge(child_node, inst_node)
        self._build_scope(child_module, child_scope)

    @staticmethod
    def _resolve_connections(child_module: ast.Module,
                             inst: ast.Instance) -> dict[str, Optional[ast.Expression]]:
        """Map port names to connected expressions (named or positional)."""
        mapping: dict[str, Optional[ast.Expression]] = {}
        positional = [c for c in inst.connections if c.port is None]
        if positional and len(positional) == len(inst.connections):
            for port, conn in zip(child_module.ports, inst.connections):
                mapping[port.name] = conn.expr
            return mapping
        for conn in inst.connections:
            if conn.port is not None:
                mapping[conn.port] = conn.expr
        return mapping

    # -- queries -----------------------------------------------------------------

    def output_node(self, output: str) -> tuple[str, str, str]:
        return _sig(self.top, output)

    def instances_affecting_output(self, output: str) -> set[str]:
        """Instance paths whose logic lies in the fan-in cone of ``output``."""
        node = self.output_node(output)
        if node not in self.predecessors:
            return set()
        ancestors = _reachable(self.predecessors, node)
        return {name[1] for name in ancestors if name[0] == "inst"}

    def outputs_affected_by_instance(self, instance_path: str,
                                     outputs: Iterable[str]) -> set[str]:
        """Subset of ``outputs`` reachable from the given instance."""
        node = _inst(instance_path)
        if node not in self.successors:
            return set()
        descendants = _reachable(self.successors, node)
        reachable = set()
        for output in outputs:
            if self.output_node(output) in descendants:
                reachable.add(output)
        return reachable

    def signal_fanin(self, scope: str, signal: str) -> set[tuple[str, str]]:
        """All (scope, signal) pairs in the transitive fan-in of a signal."""
        node = _sig(scope, signal)
        if node not in self.predecessors:
            return set()
        return {
            (item[1], item[2])
            for item in _reachable(self.predecessors, node)
            if item[0] == "sig"
        }

    def instance_nodes(self) -> set[str]:
        return {n[1] for n in self.successors if n[0] == "inst"}

    def score_instances(self, outputs: Iterable[str]) -> dict[str, int]:
        """Score every instance by the number of selected outputs it influences.

        This is exactly the scoring loop of Algorithm 1 (lines 6-9): each
        instance starts at zero and gains one point per selected output found
        in its forward cone.
        """
        scores: dict[str, int] = {path: 0 for path in self.instance_nodes()}
        for output in outputs:
            for path in self.instances_affecting_output(output):
                scores[path] = scores.get(path, 0) + 1
        return scores
