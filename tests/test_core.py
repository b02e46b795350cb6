from collections import deque
from typing import Iterable

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from btv.core import (
    CONTROL_TYPES,
    LEAF_TYPES,
    NodeType,
    TreeSpec,
    bfs_numbering,
    validate_tree,
)

NODES = "abcdefgh"


# REQ4's definition by closure: the oracle for validate_tree's breadth-first walk.
def transitive_closure(rel: Iterable[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    """Least transitive relation containing `rel`, as a worklist fixpoint.

    Whenever (a,b) joins the closure, so must (a,c) for every (b,c) already
    present and (x,b) for every (x,a) already present.
    """
    closure: set[tuple[str, str]] = set()
    succ: dict[str, set[str]] = {}
    pred: dict[str, set[str]] = {}
    work = deque(rel)
    while work:
        a, b = work.popleft()
        if (a, b) in closure:
            continue
        closure.add((a, b))
        succ.setdefault(a, set()).add(b)
        pred.setdefault(b, set()).add(a)
        for c in succ.get(b, ()):
            if (a, c) not in closure:
                work.append((a, c))
        for x in pred.get(a, ()):
            if (x, b) not in closure:
                work.append((x, b))
    return frozenset(closure)


def closure_by_matrix(rel, universe):
    """Oracle: boolean adjacency matrix powered to fixpoint."""
    names = sorted(universe)
    index = {n: i for i, n in enumerate(names)}
    n = len(names)
    m = np.zeros((n, n), dtype=bool)
    for a, b in rel:
        m[index[a], index[b]] = True
    closure = m.copy()
    while True:
        nxt = closure | (closure @ closure)
        if (nxt == closure).all():
            break
        closure = nxt
    return {(names[i], names[j]) for i in range(n) for j in range(n) if closure[i, j]}


pairs = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES))
relations = st.frozensets(pairs, max_size=20)


def test_closure_empty():
    assert transitive_closure([]) == frozenset()


def test_closure_two_step_chain():
    got = transitive_closure([("a", "b"), ("b", "c")])
    assert got == {("a", "b"), ("b", "c"), ("a", "c")}


@given(relations)
@settings(max_examples=200)
def test_closure_matches_matrix_powering(rel):
    universe = {x for pair in rel for x in pair} | set(NODES)
    assert set(transitive_closure(rel)) == closure_by_matrix(rel, universe)


@given(relations)
def test_closure_idempotent(rel):
    once = transitive_closure(rel)
    assert transitive_closure(once) == once


@given(st.lists(pairs, max_size=12))
def test_closure_contains_relation_and_is_transitive(rel):
    closed = transitive_closure(rel)
    assert set(rel) <= closed
    for a, b in closed:
        for c, d in closed:
            if b == c:
                assert (a, d) in closed


# --- tree validation ---------------------------------------------------------

def case_study_spec() -> TreeSpec:
    return TreeSpec.build(
        n_type={"root": NodeType.ROOT, "sequence_1": NodeType.SEQUENCE,
                "condition_1": NodeType.CONDITION, "action_1": NodeType.ACTION},
        n_id={"root": 0, "sequence_1": 1, "condition_1": 2, "action_1": 3},
        parent={"sequence_1": "root", "condition_1": "sequence_1",
                "action_1": "sequence_1"},
    )


def test_case_study_tree_is_valid():
    report = validate_tree(case_study_spec())
    assert report.ok
    assert report.violations == ()


def test_two_roots_req1():
    spec = TreeSpec.build(
        n_type={"r1": NodeType.ROOT, "r2": NodeType.ROOT, "c": NodeType.CONDITION},
        n_id={"r1": 0, "r2": 1, "c": 2},
        parent={"r2": "r1", "c": "r2"},
    )
    assert "REQ1" in validate_tree(spec).tags()


def test_orphan_non_root_req2():
    spec = TreeSpec.build(
        n_type={"root": NodeType.ROOT, "c": NodeType.CONDITION,
                "orphan": NodeType.CONDITION},
        n_id={"root": 0, "c": 1, "orphan": 2},
        parent={"c": "root"},
    )
    assert "REQ2" in validate_tree(spec).tags()


def test_parent_two_cycle_req3_and_req4():
    spec = TreeSpec.build(
        n_type={"root": NodeType.ROOT, "c": NodeType.CONDITION,
                "a": NodeType.SEQUENCE, "b": NodeType.CONDITION},
        n_id={"root": 0, "c": 1, "a": 2, "b": 3},
        parent={"c": "root", "a": "b", "b": "a"},
    )
    tags = validate_tree(spec).tags()
    assert "REQ3" in tags
    assert "REQ4" in tags


def test_disconnected_subtree_req4():
    # a and b parent each other's chain off a node that never connects to root
    spec = TreeSpec.build(
        n_type={"root": NodeType.ROOT, "c": NodeType.CONDITION,
                "island": NodeType.SEQUENCE, "leaf": NodeType.CONDITION},
        n_id={"root": 0, "c": 1, "island": 2, "leaf": 3},
        parent={"c": "root", "leaf": "island", "island": "leaf"},
    )
    assert "REQ4" in validate_tree(spec).tags()


def test_duplicate_id():
    spec = TreeSpec.build(
        n_type={"root": NodeType.ROOT, "s": NodeType.SEQUENCE,
                "c1": NodeType.CONDITION, "c2": NodeType.CONDITION},
        n_id={"root": 0, "s": 1, "c1": 2, "c2": 2},
        parent={"s": "root", "c1": "s", "c2": "s"},
    )
    assert "ID_UNIQUE" in validate_tree(spec).tags()


def test_missing_id_is_reported():
    spec = TreeSpec.build({"root": NodeType.ROOT, "c": NodeType.CONDITION},
                          {"root": 0}, {"c": "root"})
    assert validate_tree(spec).violations == (("ID_UNIQUE", "node 'c' has no n_id"),)


def test_root_with_two_children():
    spec = TreeSpec.build(
        n_type={"root": NodeType.ROOT, "c1": NodeType.CONDITION,
                "c2": NodeType.CONDITION},
        n_id={"root": 0, "c1": 1, "c2": 2},
        parent={"c1": "root", "c2": "root"},
    )
    assert "ROOT_ARITY" in validate_tree(spec).tags()


def test_childless_sequence():
    spec = TreeSpec.build(
        n_type={"root": NodeType.ROOT, "s": NodeType.SEQUENCE},
        n_id={"root": 0, "s": 1},
        parent={"s": "root"},
    )
    assert "LEAF_ARITY" in validate_tree(spec).tags()


def test_ids_that_are_not_breadth_first_are_an_error():
    spec = TreeSpec.build(
        n_type={"root": NodeType.ROOT, "s": NodeType.SEQUENCE,
                "c1": NodeType.CONDITION, "c2": NodeType.CONDITION},
        n_id={"root": 0, "s": 1, "c1": 5, "c2": 9},
        parent={"s": "root", "c1": "s", "c2": "s"},
    )
    report = validate_tree(spec)
    assert not report.ok
    assert report.tags() == {"ID_BFS"}


def test_validate_is_pure():
    spec = case_study_spec()
    assert validate_tree(spec) == validate_tree(spec)


def test_ordered_children():
    spec = case_study_spec()
    assert spec.children["sequence_1"] == ("condition_1", "action_1")
    assert spec.children["action_1"] == ()
    assert spec.children["root"] == ("sequence_1",)


def test_ordered_children_partition_non_root():
    spec = case_study_spec()
    gathered = []
    for n in spec.nodes:
        gathered.extend(spec.children[n])
    assert sorted(gathered) == sorted(spec.nodes - {"root"})


def test_valid_trees_closure_reaches_everything():
    """On every valid tree, the closure image of the root is all other nodes."""
    from btv.frontend import elaborate, parse
    from randmodels import random_model_source

    for seed in range(40):
        tree = elaborate(parse(random_model_source(seed))).tree
        child_rel = [(p, c) for c, p in tree.parent.items()]
        image = {b for a, b in transitive_closure(child_rel) if a == tree.root}
        assert image == tree.nodes - {tree.root}
        gathered = []
        for n in tree.nodes:
            gathered.extend(tree.children[n])
        assert sorted(gathered) == sorted(tree.nodes - {tree.root})
        assert tree.depth == depth_by_parent_chain(tree)
        assert bfs_numbering(tree) == numbering_by_level(tree)


def test_parent_entry_for_undeclared_node_is_req2():
    spec = TreeSpec.build(
        n_type={"root": NodeType.ROOT, "s": NodeType.SEQUENCE, "c": NodeType.CONDITION},
        n_id={"root": 0, "s": 1, "c": 2},
        parent={"s": "root", "c": "s", "ghost": "s"},
    )
    report = validate_tree(spec)
    assert report.violations == (("REQ2", "parent entry for unknown node 'ghost'"),)
    assert bfs_numbering(spec) == {"root": 0, "s": 1, "c": 2}
    assert spec.depth == {"root": 0, "s": 1, "c": 2}


# --- REQ4, depth and numbering against their definitions ----------------------

def depth_by_parent_chain(spec: TreeSpec) -> dict[str, int]:
    """Depth of a node: the number of parent edges between it and the root."""
    def depth(n):
        return 0 if n == spec.root else depth(spec.parent[n]) + 1
    return {n: depth(n) for n in spec.nodes}


def numbering_by_level(spec: TreeSpec) -> dict[str, int]:
    """Breadth-first, left-to-right numbering: nodes sorted by depth, then by
    the sibling positions along their path from the root."""
    def path(n):
        if n == spec.root:
            return ()
        par = spec.parent[n]
        return path(par) + (spec.children[par].index(n),)
    paths = {n: path(n) for n in spec.nodes}
    order = sorted(spec.nodes, key=lambda n: (len(paths[n]), paths[n]))
    return {n: i for i, n in enumerate(order)}


@st.composite
def well_formed_specs(draw):
    """Valid trees: a random shape, types that fit it, ids in any order."""
    names = [f"n{i}" for i in range(draw(st.integers(2, 10)))]
    parent = {names[1]: names[0]}
    for i in range(2, len(names)):
        parent[names[i]] = names[draw(st.integers(1, i - 1))]
    inner = set(parent.values())
    n_type = {n: draw(st.sampled_from(CONTROL_TYPES if n in inner else LEAF_TYPES))
              for n in names[1:]}
    n_type[names[0]] = NodeType.ROOT
    ids = draw(st.permutations(range(len(names))))
    return TreeSpec.build(n_type, dict(zip(names, ids)), parent)


UNDECLARED = ["ghost", "zz"]


@st.composite
def arbitrary_specs(draw):
    """Any number of roots, cycles, orphans, parents that name unknown nodes,
    parent entries for undeclared nodes, duplicate ids and missing ids."""
    names = draw(st.lists(st.sampled_from(NODES), min_size=1, max_size=8, unique=True))
    n_type = {n: draw(st.sampled_from(list(NodeType))) for n in names}
    n_id = {n: draw(st.integers(0, 9)) for n in names}
    for n in draw(st.lists(st.sampled_from(names), max_size=2, unique=True)):
        del n_id[n]
    parent_names = st.sampled_from(names + UNDECLARED)
    parent = {}
    for n in names + draw(st.lists(st.sampled_from(UNDECLARED), unique=True)):
        p = draw(st.none() | parent_names)
        if p is not None:
            parent[n] = p
    return TreeSpec.build(n_type, n_id, parent)


@given(st.one_of(well_formed_specs(), arbitrary_specs()))
@settings(max_examples=500)
def test_req4_depth_and_numbering_match_definitions(spec):
    report = validate_tree(spec)  # a report, never an exception

    roots = [n for n in spec.node_order if spec.n_type[n] is NodeType.ROOT]
    unreachable = []
    if roots:
        child_rel = [(p, c) for c, p in spec.parent.items()
                     if p in spec.nodes and c in spec.nodes]
        image = {b for a, b in transitive_closure(child_rel) if a == roots[0]}
        unreachable = [n for n in spec.node_order if n not in image | {roots[0]}]
    assert [detail for tag, detail in report.violations if tag == "REQ4"] == \
        [f"node {n!r} is not reachable from the root" for n in unreachable]

    if report.tags() <= {"ID_BFS"}:
        assert spec.depth == depth_by_parent_chain(spec)
        assert bfs_numbering(spec) == numbering_by_level(spec)
