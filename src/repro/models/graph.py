"""DNN computation graph: a DAG of layers (Sec II-A).

Inter-layer dependencies are extracted at compile time and encapsulated as
a directed acyclic graph; inference executes nodes in topological order.
The graph is shape-checked eagerly at construction so zoo builders fail
fast on dimension bugs.

A time-unrolled RNN repeats a few cells once per time step.  A
:class:`ModelPlan` holds each cell once with the steps it spans, so work
that depends only on a layer's shape -- lowering, timing, prediction --
runs per cell rather than per unrolled node; :meth:`Graph.from_plan`
expands a plan into the full graph for the callers that want one.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.models.layers import InputSpec, Layer, LayerKind


def balanced_partition(
    weights: Sequence[float], num_stages: int
) -> Tuple[Tuple[int, int], ...]:
    """Cut a weight sequence into contiguous stages of near-equal mass.

    Returns ``num_stages`` half-open ``(start, end)`` index ranges that
    cover the sequence in order, each non-empty.  Cuts greedily track the
    ideal equal-mass boundaries, so a pipeline-parallel partition lands
    each stage within one item's weight of perfect balance -- good enough
    for stage graphs, where the item granularity (a whole layer) dominates
    any residual imbalance a DP-optimal cut could recover.
    """
    masses = [float(w) for w in weights]
    count = len(masses)
    if num_stages <= 0:
        raise ValueError("num_stages must be positive")
    if num_stages > count:
        raise ValueError(
            f"cannot cut {count} items into {num_stages} non-empty stages"
        )
    if any(mass < 0 for mass in masses):
        raise ValueError("weights must be non-negative")
    total = sum(masses)
    if total <= 0:
        # Degenerate mass: fall back to an even split by item count.
        masses = [1.0] * count
        total = float(count)
    cuts = [0]
    prefix = 0.0
    index = 0
    for stage in range(1, num_stages):
        target = total * stage / num_stages
        lowest = cuts[-1] + 1  # this stage keeps at least one item
        highest = count - (num_stages - stage)  # one item per later stage
        while index < lowest:
            prefix += masses[index]
            index += 1
        # Ties advance (<=): a zero-mass item never improves the distance
        # to target, but leaving it behind would pin the cut in front of
        # every zero-weight layer (pooling, softmax) for no benefit.
        while index < highest and (
            abs(prefix + masses[index] - target) <= abs(prefix - target)
        ):
            prefix += masses[index]
            index += 1
        cuts.append(index)
    cuts.append(count)
    return tuple((cuts[i], cuts[i + 1]) for i in range(num_stages))


@dataclasses.dataclass(frozen=True)
class Node:
    """A layer instance bound into a graph with resolved shapes."""

    index: int
    layer: Layer
    input_names: Sequence[str]
    input_specs: Sequence[InputSpec]
    output_spec: InputSpec

    @property
    def name(self) -> str:
        return self.layer.name

    @property
    def kind(self) -> LayerKind:
        return self.layer.kind


class Graph:
    """A shape-checked DAG of layers.

    Nodes are appended in topological order (builders construct networks
    front-to-back); ``add`` validates that every referenced input already
    exists, which structurally guarantees acyclicity.
    """

    def __init__(self, name: str, input_spec: InputSpec) -> None:
        if not name:
            raise ValueError("graph name must be non-empty")
        self.name = name
        self.input_spec = input_spec
        self._nodes: List[Node] = []
        self._by_name: Dict[str, Node] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    INPUT = "__input__"

    def add(self, layer: Layer, inputs: Optional[Sequence[str]] = None) -> Node:
        """Append ``layer``, wired to ``inputs`` (default: previous node).

        ``inputs`` entries name earlier nodes, or :data:`Graph.INPUT` for
        the graph input.  Returns the bound node.
        """
        if layer.name in self._by_name:
            raise ValueError(f"duplicate layer name: {layer.name}")
        if inputs is None:
            inputs = [self._nodes[-1].name] if self._nodes else [self.INPUT]
        if not inputs:
            raise ValueError(f"{layer.name}: needs at least one input")
        specs = [self._resolve_spec(name, layer.name) for name in inputs]
        out = layer.infer_shape(list(specs))
        node = Node(
            index=len(self._nodes),
            layer=layer,
            input_names=tuple(inputs),
            input_specs=tuple(specs),
            output_spec=out,
        )
        self._nodes.append(node)
        self._by_name[layer.name] = node
        return node

    @classmethod
    def from_plan(cls, plan: "ModelPlan") -> "Graph":
        """Expand a plan into its graph, node for node.

        Each copy of a cell reads its cell input from the node added just
        before it (the previous copy's last node, or the graph input), and
        its intra-cell inputs from the same copy.
        """
        graph = cls(plan.name, plan.segments[0].cell.input_spec)
        for segment in plan.segments:
            names = iter(segment.node_names())
            for _ in range(segment.repeats):
                tail = graph._nodes[-1].name if graph._nodes else cls.INPUT
                renamed = {cls.INPUT: tail}
                for node in segment.cell:
                    name = next(names)
                    layer = node.layer
                    if name != layer.name:
                        layer = dataclasses.replace(layer, name=name)
                    graph.add(layer, [renamed[source] for source in node.input_names])
                    renamed[node.name] = name
        return graph

    def _resolve_spec(self, name: str, consumer: str) -> InputSpec:
        if name == self.INPUT:
            return self.input_spec
        node = self._by_name.get(name)
        if node is None:
            raise KeyError(
                f"{consumer}: input '{name}' does not name an earlier node"
            )
        return node.output_spec

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __getitem__(self, name: str) -> Node:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def nodes(self) -> Sequence[Node]:
        return tuple(self._nodes)

    @property
    def output_spec(self) -> InputSpec:
        if not self._nodes:
            return self.input_spec
        return self._nodes[-1].output_spec

    def nodes_of_kind(self, kind: LayerKind) -> List[Node]:
        return [n for n in self._nodes if n.kind == kind]

    def total_weight_elems(self) -> int:
        return sum(n.layer.weight_elems(list(n.input_specs)) for n in self._nodes)

    def total_macs(self, batch: int) -> int:
        if batch <= 0:
            raise ValueError("batch must be positive")
        return sum(n.layer.macs(list(n.input_specs), batch) for n in self._nodes)

    def consumers(self, name: str) -> List[Node]:
        """Nodes that read the named node's output (graph analysis helper)."""
        return [n for n in self._nodes if name in n.input_names]

    def partition(
        self, num_stages: int, batch: int = 1
    ) -> Tuple[Tuple[int, int], ...]:
        """Cut the graph into ``num_stages`` contiguous pipeline stages.

        Stages are balanced by per-node MAC mass (the dominant cost on a
        systolic NPU); vector-only nodes carry zero mass and ride with
        whichever neighbor the cut assigns them to.  Returns half-open
        ``(start, end)`` node-index ranges, in topological order --
        contiguity is what makes a stage a valid pipeline segment, since
        nodes only ever read earlier nodes' outputs.
        """
        if not self._nodes:
            raise ValueError("cannot partition an empty graph")
        weights = [
            node.layer.macs(list(node.input_specs), batch)
            for node in self._nodes
        ]
        return balanced_partition(weights, num_stages)

    def validate(self) -> None:
        """Re-run shape inference over the whole graph (defensive check)."""
        for node in self._nodes:
            inferred = node.layer.infer_shape(list(node.input_specs))
            if inferred != node.output_spec:
                raise AssertionError(
                    f"{node.name}: cached output spec {node.output_spec} "
                    f"!= inferred {inferred}"
                )

    def summary(self) -> str:
        """Human-readable per-node listing (examples/debugging)."""
        lines = [f"{self.name} (input {self.input_spec})"]
        for node in self._nodes:
            spec = node.output_spec
            lines.append(
                f"  [{node.index:3d}] {node.kind.value:8s} {node.name:28s} "
                f"-> {spec.channels}x{spec.height}x{spec.width}"
            )
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class PlanSegment:
    """A cell of layers that appears once or repeats over time steps.

    ``cell`` is a small graph whose nodes carry the input shapes every
    repetition sees.  With ``steps`` set, the cell repeats once per step
    and step ``t``'s copy of node ``x`` is named ``x_t{t}``; without, the
    cell's nodes appear once under their own names.
    """

    cell: Graph
    steps: Optional[range] = None

    @property
    def repeats(self) -> int:
        return 1 if self.steps is None else len(self.steps)

    def node_names(self) -> List[str]:
        """Names of the segment's nodes, in node order."""
        names = [node.name for node in self.cell]
        if self.steps is None:
            return names
        return [f"{name}_t{step}" for step in self.steps for name in names]


@dataclasses.dataclass(frozen=True)
class ModelPlan:
    """A network as a sequence of cells, in node order."""

    name: str
    segments: Tuple[PlanSegment, ...]

    def __len__(self) -> int:
        return sum(len(segment.cell) * segment.repeats for segment in self.segments)

    @classmethod
    def of_graph(cls, graph: Graph) -> "ModelPlan":
        """A graph as a plan of one cell that appears once."""
        return cls(graph.name, (PlanSegment(graph),))


class PlanBuilder:
    """Builds the plan of a linear chain of cells, block by block."""

    def __init__(self, name: str, input_spec: InputSpec) -> None:
        self.name = name
        self.output_spec = input_spec
        self._segments: List[PlanSegment] = []

    def once(self, *layers: Layer) -> None:
        """Append ``layers`` once, under their own names."""
        self._add(layers, None)

    def unroll(self, steps: int, *layers: Layer) -> None:
        """Append ``layers`` once per time step ``0 .. steps - 1``.

        A step whose cell output shape differs from its input shape (the
        first step after the graph input or another cell) gets a segment
        of its own; from the first step whose output shape feeds back its
        input shape, every remaining step shares one segment.
        """
        if steps <= 0:
            raise ValueError("steps must be positive")
        start = 0
        while start < steps:
            steady = self._add(layers, range(start, steps))
            if steady:
                return
            start += 1

    def build(self) -> ModelPlan:
        if not self._segments:
            raise ValueError(f"{self.name}: a plan needs at least one layer")
        return ModelPlan(self.name, tuple(self._segments))

    def _add(self, layers: Sequence[Layer], steps: Optional[range]) -> bool:
        """Append one segment; True when it covers all of ``steps``."""
        cell = Graph(self.name, self.output_spec)
        for layer in layers:
            cell.add(layer)
        steady = cell.output_spec == cell.input_spec
        if steps is not None and not steady:
            steps = steps[:1]
        self._segments.append(PlanSegment(cell, steps))
        self.output_spec = cell.output_spec
        return steady
