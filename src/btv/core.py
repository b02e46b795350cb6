"""Static behavior tree structure: node types, topology, well-formedness.

A tree is well formed when it has a single root, every other node has a
parent, the parent graph is acyclic, and every node is reachable from the
root. Reachability (REQ4), the breadth-first numbering and node depths all
come from one breadth-first walk from the root over `TreeSpec.children`,
and a tree's n_ids must be that numbering (ID_BFS), so `node_order` is
breadth-first. Violations are reported, not raised, so callers can show
all problems at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Mapping


class ModelError(Exception):
    """Base class for errors caused by a bad user model."""


class UnknownNodeError(ModelError):
    pass


class NodeType(Enum):
    ROOT = "ROOT"
    SEQUENCE = "SEQUENCE"
    FALLBACK = "FALLBACK"
    CONDITION = "CONDITION"
    ACTION = "ACTION"


class TickResult(Enum):
    SUCCESS = "SUCCESS"
    RUNNING = "RUNNING"
    FAILURE = "FAILURE"
    UNKNOWN = "UNKNOWN"

    # Members are singletons compared by identity, so the identity hash, which
    # runs in C, agrees with equality; Enum's own hash runs in Python. It
    # serves the _RESULT_CODE lookups made while a leaf's rows are built
    # (semantics._Automaton._leaf_rows) and the hash of any Event, whose
    # outcome holds a TickResult.
    __hash__ = object.__hash__


CONTROL_TYPES = (NodeType.SEQUENCE, NodeType.FALLBACK)
LEAF_TYPES = (NodeType.CONDITION, NodeType.ACTION)


@dataclass(frozen=True)
class TreeSpec:
    """Static topology: node set, types, ids, and the parent map.

    `parent` must be undefined exactly on the root. Construction does not
    validate; run validate_tree to get a report.
    """

    nodes: frozenset[str]
    n_type: Mapping[str, NodeType]
    n_id: Mapping[str, int]
    parent: Mapping[str, str]

    @staticmethod
    def build(n_type: Mapping[str, NodeType], n_id: Mapping[str, int],
              parent: Mapping[str, str]) -> "TreeSpec":
        return TreeSpec(frozenset(n_type), dict(n_type), dict(n_id), dict(parent))

    @cached_property
    def node_order(self) -> tuple[str, ...]:
        # Canonical order: ascending n_id, name as tiebreak for broken specs.
        return tuple(sorted(self.nodes, key=lambda n: (self.n_id.get(n, 0), n)))

    @cached_property
    def node_index(self) -> Mapping[str, int]:
        return {n: i for i, n in enumerate(self.node_order)}

    @cached_property
    def children(self) -> Mapping[str, tuple[str, ...]]:
        kids: dict[str, list[str]] = {n: [] for n in self.nodes}
        for child, par in self.parent.items():
            if par in kids:
                kids[par].append(child)
        return {n: tuple(sorted(cs, key=lambda c: self.n_id.get(c, 0)))
                for n, cs in kids.items()}

    @cached_property
    def root(self) -> str:
        roots = [n for n in self.nodes if self.n_type.get(n) is NodeType.ROOT]
        if len(roots) != 1:
            raise UnknownNodeError(f"tree has {len(roots)} ROOT nodes, expected 1")
        return roots[0]

    @cached_property
    def depth(self) -> Mapping[str, int]:
        order = _walk(self, self.root)
        depths = {order[0]: 0}
        for c in order[1:]:
            depths[c] = depths[self.parent[c]] + 1
        return depths


def _walk(spec: TreeSpec, root: str) -> list[str]:
    """Nodes reachable from `root` along `children`, breadth-first and left
    to right. Each node is visited once, so parent cycles end the walk, and
    names that are not declared nodes are skipped."""
    order = [root]
    seen = {root}
    for n in order:
        for c in spec.children[n]:
            if c not in seen and c in spec.children:
                seen.add(c)
                order.append(c)
    return order


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[tuple[str, str], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def tags(self) -> set[str]:
        return {tag for tag, _ in self.violations}


def _parent_cycles(spec: TreeSpec) -> list[list[str]]:
    """All distinct cycles in the parent graph (each node has <=1 out-edge)."""
    color: dict[str, int] = {}  # 0 in progress, 1 done
    cycles = []
    for start in spec.node_order:
        if start in color:
            continue
        path = []
        n: str | None = start
        while n is not None and n in spec.nodes and n not in color:
            color[n] = 0
            path.append(n)
            n = spec.parent.get(n)
        if n is not None and color.get(n) == 0:
            cycles.append(path[path.index(n):])
        for m in path:
            color[m] = 1
    return cycles


def validate_tree(spec: TreeSpec) -> ValidationReport:
    """Check Req1-Req4 plus id and arity rules; report every violation.

    REQ3 is cycle detection on parent edges; REQ4 is breadth-first
    reachability from the root along the child relation. ID_BFS reports
    ids that are unique but do not follow breadth-first, left-to-right
    numbering; it is checked only when nothing else is wrong.
    """
    v: list[tuple[str, str]] = []
    roots = [n for n in spec.node_order if spec.n_type.get(n) is NodeType.ROOT]

    if len(roots) != 1:
        names = ", ".join(roots) if roots else "none"
        v.append(("REQ1", f"expected exactly one ROOT node, found {len(roots)} ({names})"))

    root_set = set(roots)
    for n in spec.node_order:
        par = spec.parent.get(n)
        if n in root_set:
            if par is not None:
                v.append(("REQ2", f"root {n!r} must not have a parent (has {par!r})"))
        elif par is None:
            v.append(("REQ2", f"non-root node {n!r} has no parent"))
        elif par not in spec.nodes:
            v.append(("REQ2", f"parent of {n!r} is unknown node {par!r}"))
    for n in sorted(spec.parent.keys() - spec.nodes):
        v.append(("REQ2", f"parent entry for unknown node {n!r}"))

    for cycle in _parent_cycles(spec):
        v.append(("REQ3", "parent cycle: " + " -> ".join(cycle + cycle[:1])))

    if roots:
        reachable = set(_walk(spec, roots[0]))
        for n in spec.node_order:
            if n not in reachable:
                v.append(("REQ4", f"node {n!r} is not reachable from the root"))

    by_id: dict[int, list[str]] = {}
    for n in spec.node_order:
        if n in spec.n_id:
            by_id.setdefault(spec.n_id[n], []).append(n)
        else:
            v.append(("ID_UNIQUE", f"node {n!r} has no n_id"))
    for nid, ns in sorted(by_id.items()):
        if len(ns) > 1:
            v.append(("ID_UNIQUE", f"n_id {nid} assigned to {', '.join(ns)}"))

    if roots:
        ref_root = roots[0]
        kids = spec.children.get(ref_root, ())
        if len(kids) != 1:
            v.append(("ROOT_ARITY", f"root has {len(kids)} children, expected exactly 1"))

    for n in spec.node_order:
        arity = len(spec.children.get(n, ()))
        t = spec.n_type.get(n)
        if t in LEAF_TYPES and arity != 0:
            v.append(("LEAF_ARITY", f"{t.value} node {n!r} has {arity} children, expected 0"))
        elif t in CONTROL_TYPES and arity == 0:
            v.append(("LEAF_ARITY", f"{t.value} node {n!r} has no children, expected >= 1"))

    if not v:
        expected = bfs_numbering(spec)
        for n in spec.node_order:
            if spec.n_id[n] != expected[n]:
                v.append(("ID_BFS",
                          f"n_id of {n!r} is {spec.n_id[n]}, breadth-first numbering "
                          f"gives {expected[n]}"))
                break

    return ValidationReport(tuple(v))


def bfs_numbering(spec: TreeSpec) -> dict[str, int]:
    """Breadth-first, left-to-right numbering with root = 0.

    Sibling order is taken from the declared n_id values, so this is the
    canonical renumbering of a structurally valid tree.
    """
    return {n: i for i, n in enumerate(_walk(spec, spec.root))}
