"""Design hierarchy analysis.

Builds the module/instance tree of a parsed design, computes per-module port
statistics (I/O pin counts) and provides the per-instance view that ALICE's
module-filtering phase consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional

from . import ast
from .consteval import ConstEvalError, module_parameters, range_width


class HierarchyError(Exception):
    """Raised when the design hierarchy is inconsistent (e.g. missing module)."""


@dataclass
class PortInfo:
    """Resolved information about a single port of a module."""

    name: str
    direction: str
    width: int

    @property
    def is_input(self) -> bool:
        return self.direction == "input"

    @property
    def is_output(self) -> bool:
        return self.direction == "output"


@dataclass
class ModuleInfo:
    """Aggregate port statistics for one module definition."""

    name: str
    ports: list[PortInfo]
    parameters: dict[str, int] = field(default_factory=dict)

    @property
    def input_pins(self) -> int:
        return sum(p.width for p in self.ports if p.direction == "input")

    @property
    def output_pins(self) -> int:
        return sum(p.width for p in self.ports if p.direction == "output")

    @property
    def inout_pins(self) -> int:
        return sum(p.width for p in self.ports if p.direction == "inout")

    @property
    def io_pins(self) -> int:
        """Total bit-level I/O pin count (the metric used by ALICE filtering)."""
        return self.input_pins + self.output_pins + self.inout_pins

    def port(self, name: str) -> PortInfo:
        for p in self.ports:
            if p.name == name:
                return p
        raise KeyError(f"port '{name}' not found on module '{self.name}'")


@dataclass
class InstanceNode:
    """A node of the elaborated instance tree."""

    path: str
    instance_name: str
    module_name: str
    parent: Optional["InstanceNode"] = None
    children: list["InstanceNode"] = field(default_factory=list)
    ast_instance: Optional[ast.Instance] = None

    def walk(self) -> Iterator["InstanceNode"]:
        yield self
        for child in self.children:
            yield from child.walk()

    @property
    def depth(self) -> int:
        depth = 0
        node = self
        while node.parent is not None:
            depth += 1
            node = node.parent
        return depth


def resolve_module_info(module: ast.Module,
                        overrides: Optional[Mapping[str, int]] = None) -> ModuleInfo:
    """Compute :class:`ModuleInfo` for a module, resolving parameterized widths."""
    params = module_parameters(module, overrides)
    ports: list[PortInfo] = []
    decl_widths = {
        decl.name: decl.width for decl in module.net_decls
    }
    for port in module.ports:
        width_range = port.width if port.width is not None else decl_widths.get(port.name)
        try:
            width = range_width(width_range, params)
        except ConstEvalError as exc:
            raise HierarchyError(
                f"cannot resolve width of port '{port.name}' on module "
                f"'{module.name}': {exc}"
            ) from exc
        ports.append(PortInfo(name=port.name, direction=port.direction, width=width))
    return ModuleInfo(name=module.name, ports=ports, parameters=params)


class DesignHierarchy:
    """The elaborated hierarchy of a design: modules, instances and statistics."""

    def __init__(self, source: ast.Source, top: str):
        if not source.has_module(top):
            raise HierarchyError(f"top module '{top}' not found in source")
        self.source = source
        self.top = top
        self._module_info: dict[str, ModuleInfo] = {}
        self.root = self._build_tree()

    # -- module-level queries ---------------------------------------------------

    def module_info(self, name: str) -> ModuleInfo:
        """Return (and cache) the resolved port statistics of a module."""
        if name not in self._module_info:
            self._module_info[name] = resolve_module_info(self.source.module(name))
        return self._module_info[name]

    def module_names(self, include_top: bool = True) -> list[str]:
        names = self.source.module_names()
        if not include_top:
            names = [n for n in names if n != self.top]
        return names

    def defined_module_count(self, include_top: bool = True) -> int:
        return len(self.module_names(include_top=include_top))

    # -- instance-level queries ---------------------------------------------------

    def _build_tree(self) -> InstanceNode:
        root = InstanceNode(path=self.top, instance_name=self.top,
                            module_name=self.top)
        self._expand(root, seen=(self.top,))
        return root

    def _expand(self, node: InstanceNode, seen: tuple[str, ...]) -> None:
        module = self.source.module(node.module_name)
        for inst in module.instances:
            if not self.source.has_module(inst.module_name):
                # Unresolved leaf (e.g. a technology cell); keep it as a leaf node.
                child = InstanceNode(
                    path=f"{node.path}.{inst.instance_name}",
                    instance_name=inst.instance_name,
                    module_name=inst.module_name,
                    parent=node,
                    ast_instance=inst,
                )
                node.children.append(child)
                continue
            if inst.module_name in seen:
                raise HierarchyError(
                    f"recursive instantiation of module '{inst.module_name}'"
                )
            child = InstanceNode(
                path=f"{node.path}.{inst.instance_name}",
                instance_name=inst.instance_name,
                module_name=inst.module_name,
                parent=node,
                ast_instance=inst,
            )
            node.children.append(child)
            self._expand(child, seen=seen + (inst.module_name,))

    def instances(self, include_top: bool = False) -> list[InstanceNode]:
        """All instance nodes in the design (optionally including the top)."""
        nodes = list(self.root.walk())
        if not include_top:
            nodes = [n for n in nodes if n is not self.root]
        return nodes

    def instances_of(self, module_name: str) -> list[InstanceNode]:
        return [n for n in self.instances() if n.module_name == module_name]

    def instance(self, path: str) -> InstanceNode:
        for node in self.root.walk():
            if node.path == path:
                return node
        raise KeyError(f"instance path '{path}' not found")

    def instance_count(self) -> int:
        return len(self.instances())

    # -- statistics used by Table 1 ----------------------------------------------

    def io_pin_range(self, include_top: bool = False) -> tuple[int, int]:
        """Return (min, max) I/O pin count over defined modules."""
        counts = [
            self.module_info(name).io_pins
            for name in self.module_names(include_top=include_top)
            if self.source.has_module(name)
        ]
        if not counts:
            return (0, 0)
        return (min(counts), max(counts))

    def statistics(self) -> dict[str, object]:
        """Summary statistics matching the columns of Table 1."""
        lo, hi = self.io_pin_range(include_top=False)
        return {
            "top": self.top,
            "modules": self.defined_module_count(include_top=False),
            "instances": self.instance_count(),
            "io_pins_min": lo,
            "io_pins_max": hi,
        }

    # -- dominator analysis (used when inserting multi-module eFPGA instances) ----

    def dominator_parent(self, paths: list[str]) -> InstanceNode:
        """Return the deepest common ancestor of the given instance paths.

        ALICE inserts a multi-module eFPGA instance at the deepest point of the
        hierarchy that dominates every redacted instance, which minimizes the
        wiring needed to re-route the original signals.
        """
        if not paths:
            return self.root
        ancestor_lists = []
        for path in paths:
            node = self.instance(path)
            chain = []
            current: Optional[InstanceNode] = node.parent
            while current is not None:
                chain.append(current)
                current = current.parent
            ancestor_lists.append(list(reversed(chain)))
        common: InstanceNode = self.root
        for level in zip(*ancestor_lists):
            first = level[0]
            if all(node is first for node in level):
                common = first
            else:
                break
        return common
