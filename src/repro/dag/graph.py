"""The campaign task graph: nodes, edges, keys, and topology.

A :class:`TaskGraph` is a named collection of :class:`TaskNode` entries
whose ``inputs`` reference other nodes by name.  It owns the two
derived structures everything else builds on:

* **output keys** — each node's content address in the artifact store.
  Dataset/fault nodes carry explicit keys
  (:func:`repro.dag.pristine_key` / :func:`repro.dag.realization_key`);
  every other node's key is derived by hashing its kind,
  key parts, and seed together with its dependencies' output keys, so
  changing any upstream spec transparently re-addresses (and therefore
  invalidates) the whole downstream subtree.
* **topological order** — Kahn's algorithm over the declared edges,
  stable in insertion order; a cycle raises
  :class:`~repro.exceptions.ConfigurationError` naming the offending
  path.

Graphs are cheap, in-memory descriptions; nothing here touches the
filesystem.  Execution and recovery live in
:mod:`repro.dag.scheduler`.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.cache.fingerprint import fingerprint
from repro.dag.node import TaskNode
from repro.exceptions import ConfigurationError


class TaskGraph:
    """A named DAG of :class:`TaskNode` entries.

    Args:
        name: graph name, used in telemetry and display.
    """

    def __init__(self, name: str = "dag") -> None:
        if not name:
            raise ConfigurationError("graph name must be non-empty")
        self.name = name
        self._nodes: dict[str, TaskNode] = {}
        self._keys: dict[str, str] = {}
        self._order: tuple[str, ...] | None = None

    # -- construction -----------------------------------------------------

    def add(self, node: TaskNode) -> TaskNode:
        """Add *node*; duplicate names are a configuration error.

        Dependencies may be added in any order — unknown input names
        are tolerated until :meth:`validate` (or any traversal) runs.
        """
        if node.name in self._nodes:
            raise ConfigurationError(
                f"graph {self.name!r} already has a node named {node.name!r}"
            )
        self._nodes[node.name] = node
        self._invalidate()
        return node

    def ensure(self, node: TaskNode) -> TaskNode:
        """Add *node*, or return the existing node of the same name.

        Shared upstream work (a dataset consumed by several figures)
        is deduplicated here: re-adding a structurally identical node
        is a no-op, while a name collision between *different* nodes —
        same name, different identity — is a configuration error.
        """
        existing = self._nodes.get(node.name)
        if existing is None:
            return self.add(node)
        if existing.identity() != node.identity():
            raise ConfigurationError(
                f"graph {self.name!r}: node name {node.name!r} reused for a "
                f"structurally different node"
            )
        return existing

    def merge(self, other: "TaskGraph") -> None:
        """Fold every node of *other* into this graph via :meth:`ensure`."""
        for name in other:
            self.ensure(other.node(name))

    def _invalidate(self) -> None:
        self._keys.clear()
        self._order = None

    # -- access -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: object) -> bool:
        return name in self._nodes

    def __iter__(self) -> Iterator[str]:
        """Node names in insertion order."""
        return iter(self._nodes)

    def node(self, name: str) -> TaskNode:
        """The node called *name* (loud on typos)."""
        try:
            return self._nodes[name]
        except KeyError:
            raise ConfigurationError(
                f"graph {self.name!r} has no node named {name!r}"
            ) from None

    def dependents(self) -> dict[str, tuple[str, ...]]:
        """Reverse adjacency: node name → names that consume its output."""
        out: dict[str, list[str]] = {name: [] for name in self._nodes}
        for name, node in self._nodes.items():
            for dep in node.inputs:
                if dep in out:
                    out[dep].append(name)
        return {name: tuple(consumers) for name, consumers in out.items()}

    def sinks(self) -> tuple[str, ...]:
        """Names of nodes nothing consumes, in insertion order."""
        consumed = {dep for node in self._nodes.values() for dep in node.inputs}
        return tuple(name for name in self._nodes if name not in consumed)

    def kind_counts(self) -> dict[str, int]:
        """Node count per kind, in first-seen order."""
        counts: dict[str, int] = {}
        for node in self._nodes.values():
            counts[node.kind] = counts.get(node.kind, 0) + 1
        return counts

    # -- topology ---------------------------------------------------------

    def validate(self) -> "TaskGraph":
        """Check edges resolve and the graph is acyclic; returns self."""
        for node in self._nodes.values():
            for dep in node.inputs:
                if dep not in self._nodes:
                    raise ConfigurationError(
                        f"node {node.name!r} depends on unknown node {dep!r}"
                    )
        self.topo_order()
        return self

    def topo_order(self) -> tuple[str, ...]:
        """Topological node order (Kahn), stable in insertion order."""
        if self._order is not None:
            return self._order
        indegree = {name: 0 for name in self._nodes}
        for node in self._nodes.values():
            for dep in node.inputs:
                if dep not in self._nodes:
                    raise ConfigurationError(
                        f"node {node.name!r} depends on unknown node {dep!r}"
                    )
                indegree[node.name] += 1
        dependents = self.dependents()
        ready = [name for name, deg in indegree.items() if deg == 0]
        order: list[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for consumer in dependents[name]:
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(self._nodes):
            raise ConfigurationError(
                f"graph {self.name!r} has a cycle: {' -> '.join(self._find_cycle())}"
            )
        self._order = tuple(order)
        return self._order

    def _find_cycle(self) -> list[str]:
        """One concrete cycle path, for the error message."""
        WHITE, GREY, BLACK = 0, 1, 2
        color = {name: WHITE for name in self._nodes}
        parent: dict[str, str] = {}
        for start in self._nodes:
            if color[start] != WHITE:
                continue
            stack = [(start, iter(self._nodes[start].inputs))]
            color[start] = GREY
            while stack:
                name, deps = stack[-1]
                advanced = False
                for dep in deps:
                    if color[dep] == GREY:
                        # Found it: walk parents back from name to dep.
                        path = [dep, name]
                        cursor = name
                        while cursor != dep:
                            cursor = parent[cursor]
                            path.append(cursor)
                        path.reverse()
                        return path
                    if color[dep] == WHITE:
                        color[dep] = GREY
                        parent[dep] = name
                        stack.append((dep, iter(self._nodes[dep].inputs)))
                        advanced = True
                        break
                if not advanced:
                    color[name] = BLACK
                    stack.pop()
        return []  # pragma: no cover - only called when a cycle exists

    # -- content addressing -----------------------------------------------

    def output_key(self, name: str) -> str:
        """The content key node *name*'s output artifact is stored under.

        Derived keys chain structurally: they hash the node's kind,
        key parts, and seed together with the output keys of every
        dependency (in declared order), so any change anywhere upstream
        re-addresses this node and its whole subtree.
        """
        cached = self._keys.get(name)
        if cached is not None:
            return cached
        node = self.node(name)
        if node.explicit_key is not None:
            key = node.explicit_key
        else:
            key = fingerprint(
                "dag-node",
                node.kind,
                node.key_parts,
                node.seed,
                [self.output_key(dep) for dep in node.inputs],
            )
        self._keys[name] = key
        return key

    # -- rendering --------------------------------------------------------

    def to_dot(self, done: frozenset[str] | set[str] | None = None) -> str:
        """Graphviz DOT rendering, one subgraph-free digraph.

        Nodes are shaded by kind; when *done* is given (a set of node
        names, typically from a recovery survey), completed nodes get a
        double border so cache temperature is visible at a glance.
        """
        palette = {
            "dataset": "#cfe8ff",
            "fault": "#ffd9cc",
            "score": "#e4d9ff",
            "aggregate": "#d5f0d5",
            "figure": "#fff3bf",
            "experiment": "#f5d5e8",
        }
        done = done or frozenset()
        lines = [
            f'digraph "{self.name}" {{',
            "  rankdir=LR;",
            '  node [shape=box, style=filled, fontname="monospace"];',
        ]
        for name in self.topo_order():
            node = self._nodes[name]
            fill = palette.get(node.kind, "#eeeeee")
            peripheries = ", peripheries=2" if name in done else ""
            lines.append(
                f'  "{name}" [label="{name}\\n({node.kind})", '
                f'fillcolor="{fill}"{peripheries}];'
            )
        for name in self.topo_order():
            for dep in self._nodes[name].inputs:
                lines.append(f'  "{dep}" -> "{name}";')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ", ".join(f"{k}={n}" for k, n in self.kind_counts().items())
        return f"TaskGraph({self.name!r}, {len(self)} nodes: {kinds})"
