import pytest

from btv import bundled_model_path
from btv.core import NodeType
from btv.frontend import (
    MAX_EXPR_DEPTH,
    MAX_EXPR_NESTING,
    MAX_TREE_DEPTH,
    ElaborationError,
    ParseError,
    build_tree,
    elaborate,
    load_model,
    parse,
    render_expr,
    render_model,
)
from btv.envmodel import UnknownVariableError
from btv.randmodels import GenParams, random_model_source

ROBOT_WALL = bundled_model_path("robot_wall.bt").read_text()


def test_parse_robot_wall_counts():
    doc = parse(ROBOT_WALL)
    names = []

    def collect(decl):
        names.append(decl.name)
        for child in decl.children:
            collect(child)

    collect(doc.tree_root)
    assert sorted(names) == ["action_1", "condition_1", "root", "sequence_1"]
    assert len(doc.variables) == 3
    assert len(doc.invariants) == 1
    assert len(doc.conditions) == 1
    assert len(doc.actions) == 1
    assert len(doc.hook) == 2


def test_parse_empty_input():
    with pytest.raises(ParseError) as err:
        parse("")
    assert err.value.line == 1
    assert err.value.col == 1


def test_parse_duplicate_node_name_reports_both_spans():
    src = """
    tree { root { sequence s { condition dup; action dup; } } }
    """
    with pytest.raises(ParseError) as err:
        parse(src)
    message = str(err.value)
    assert "dup" in message
    assert "first declared at" in message


def nested_source(tree_depth: int, pred: str) -> str:
    opening = "".join(f"sequence s{i} {{ " for i in range(tree_depth - 1))
    return (f"tree {{ root {{ {opening}condition c; {'} ' * (tree_depth - 1)}}} }}\n"
            "env { var x: int in 0..1 = 0; }\n"
            f"condition c {{ success_when: {pred}; }}\n")


def at_stack_depth(frames: int, fn):
    """fn() called with `frames` more frames on the stack."""
    return fn() if frames == 0 else at_stack_depth(frames - 1, fn)


# Height exactly MAX_EXPR_DEPTH: a chain of MAX_EXPR_DEPTH - 1 terms, then `== 0`.
TALL = " + ".join(["x"] * (MAX_EXPR_DEPTH - 1)) + " == 0"
PARENS = "(" * MAX_EXPR_NESTING + "x == 0" + ")" * MAX_EXPR_NESTING
NOTS = "!" * MAX_EXPR_NESTING + "x == 0"


def test_nesting_at_the_limits_loads_and_runs():
    doc = parse(nested_source(MAX_TREE_DEPTH, TALL))
    depth, decl = 0, doc.tree_root
    while decl.children:
        depth, decl = depth + 1, decl.children[0]
    assert depth == MAX_TREE_DEPTH
    from btv.checker import Status, explore
    for pred in (TALL, NOTS):
        model = elaborate(parse(nested_source(MAX_TREE_DEPTH, pred)))
        assert max(model.tree.depth.values()) == MAX_TREE_DEPTH
        assert parse(render_model(model)).conditions[0].success_when == \
            model.behaviors["c"].success_when
        assert explore(model).status is Status.HOLDS
    assert elaborate(parse(nested_source(1, PARENS))).behaviors["c"] == \
        elaborate(parse(nested_source(1, "x == 0"))).behaviors["c"]
    with pytest.raises(ParseError, match="expression nested deeper"):
        parse(nested_source(1, "x + " + TALL))
    with pytest.raises(ParseError, match="expression nested deeper"):
        parse(nested_source(1, "!" + NOTS))
    with pytest.raises(ParseError, match="expression nested deeper"):
        parse(nested_source(1, "(" + PARENS + ")"))
    with pytest.raises(ParseError, match="tree nested deeper"):
        parse(nested_source(MAX_TREE_DEPTH + 1, "true"))


def test_input_at_the_limits_parses_from_a_deep_stack():
    # Headroom for a library caller that is already 200 frames deep.
    for source in (nested_source(MAX_TREE_DEPTH, "true"), nested_source(1, TALL),
                   nested_source(1, PARENS), nested_source(1, NOTS)):
        at_stack_depth(200, lambda: elaborate(parse(source)))


def test_parse_unknown_node_kind():
    with pytest.raises(ParseError) as err:
        parse("tree { root { sequnce s { condition c; } } }")
    assert "unknown node kind" in str(err.value)


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse("tree { root { sequence s { condition c3 } } }")
    assert err.value.line == 1
    assert "expected" in str(err.value)


def test_diagnostics_deterministic():
    bad = "tree { root { sequence s {"
    msgs = set()
    for _ in range(3):
        with pytest.raises(ParseError) as err:
            parse(bad)
        msgs.add(str(err.value))
    assert len(msgs) == 1


def test_elaborate_assigns_bfs_ids():
    model = elaborate(parse(ROBOT_WALL))
    assert model.tree.n_id == {"root": 0, "sequence_1": 1,
                               "condition_1": 2, "action_1": 3}


def test_bfs_ids_on_three_level_tree():
    src = """
    tree {
      root {
        fallback f {
          sequence s1 { condition c1; action a1; }
          sequence s2 { condition c2; action a2; }
        }
      }
    }
    env { var x: int in 0..3 = 0; }
    condition c1 { success_when: x >= 1; }
    condition c2 { success_when: x >= 2; }
    action a1 { outcome SUCCESS when true; }
    action a2 { outcome FAILURE when true; }
    """
    model = elaborate(parse(src))
    assert model.tree.n_id == {"root": 0, "f": 1, "s1": 2, "s2": 3,
                               "c1": 4, "a1": 5, "c2": 6, "a2": 7}


def test_explicit_ids_verified():
    good = """
    tree { root id = 0 { sequence s id = 1 { condition c id = 2; } } }
    env { var x: int in 0..1 = 0; }
    condition c { success_when: x == 0; }
    """
    model = elaborate(parse(good))
    assert model.tree.n_id["c"] == 2

    bad = good.replace("condition c id = 2", "condition c id = 7")
    with pytest.raises(ElaborationError) as err:
        elaborate(parse(bad))
    assert "breadth-first" in str(err.value)


def test_elaborate_rejects_invalid_tree_with_report():
    src = """
    tree { root { condition a; condition b; } }
    env { var x: int in 0..1 = 0; }
    condition a { success_when: x == 0; }
    condition b { success_when: x == 0; }
    """
    with pytest.raises(ElaborationError) as err:
        elaborate(parse(src))
    assert err.value.report is not None
    assert "ROOT_ARITY" in err.value.report.tags()


def test_nested_root_yields_req1():
    src = """
    tree { root { root inner { condition c; } } }
    env { var x: int in 0..1 = 0; }
    condition c { success_when: x == 0; }
    """
    doc = parse(src)
    report_tags = None
    try:
        elaborate(doc)
    except ElaborationError as err:
        report_tags = err.report.tags()
    assert report_tags is not None and "REQ1" in report_tags
    assert build_tree(doc).n_type["inner"] is NodeType.ROOT


def test_condition_with_undeclared_variable():
    src = """
    tree { root { condition c; } }
    env { var x: int in 0..1 = 0; }
    condition c { success_when: ghost == 0; }
    """
    with pytest.raises(UnknownVariableError) as err:
        elaborate(parse(src))
    assert "ghost" in str(err.value)


def test_missing_behavior():
    src = """
    tree { root { condition c; } }
    env { var x: int in 0..1 = 0; }
    """
    with pytest.raises(ElaborationError) as err:
        elaborate(parse(src))
    assert "no behavior" in str(err.value)


def test_duplicate_behavior():
    src = """
    tree { root { condition c; } }
    env { var x: int in 0..1 = 0; }
    condition c { success_when: x == 0; }
    condition c { success_when: x == 1; }
    """
    with pytest.raises(ElaborationError) as err:
        elaborate(parse(src))
    assert "duplicate behavior" in str(err.value)


def test_behavior_kind_mismatch():
    src = """
    tree { root { condition c; } }
    env { var x: int in 0..1 = 0; }
    action c { outcome SUCCESS when true; }
    """
    with pytest.raises(ElaborationError):
        elaborate(parse(src))


def test_initial_value_outside_domain():
    src = """
    tree { root { condition c; } }
    env { var x: int in 0..5 = 9; }
    condition c { success_when: x == 0; }
    """
    with pytest.raises(ElaborationError) as err:
        elaborate(parse(src))
    assert "initial value" in str(err.value)


def test_type_error_in_effect():
    src = """
    tree { root { action a; } }
    env { var x: int in 0..5 = 0; var f: bool = true; }
    action a { outcome SUCCESS when true { x := f; } }
    """
    with pytest.raises(ElaborationError) as err:
        elaborate(parse(src))
    assert "x is int" in str(err.value)


def test_bool_variables_usable():
    src = """
    tree { root { fallback fb { condition c; action a; } } }
    env { var flag: bool = false; }
    condition c { success_when: flag; }
    action a { outcome SUCCESS when !flag { flag := true; }
               outcome FAILURE when flag; }
    """
    model = elaborate(parse(src))
    assert model.env.decl("flag").is_bool


def test_comments_and_negative_bounds():
    src = """
    // comment before everything
    tree { root { condition c; } } // trailing
    env { var x: int in -5..5 = -2; }
    condition c { success_when: x >= -4; }
    """
    model = elaborate(parse(src))
    assert model.env.decl("x").lo == -5
    assert model.env.initial_state().get("x") == -2


# --- round-trips ---------------------------------------------------------------

def assert_round_trips(model):
    text = render_model(model)
    again = elaborate(parse(text))
    assert again.tree == model.tree
    assert again.env == model.env
    assert again.behaviors == model.behaviors


def test_bundled_models_round_trip():
    for name in ("robot_wall.bt", "robot_wall_buggy.bt", "fallback_running.bt"):
        assert_round_trips(load_model(bundled_model_path(name)))


def test_random_models_round_trip():
    for seed in range(150):
        assert_round_trips(elaborate(parse(random_model_source(seed))))
    nondet = GenParams(deterministic=False)
    for seed in range(50):
        assert_round_trips(elaborate(parse(random_model_source(seed, nondet))))


def test_render_expr_parenthesizes_correctly():
    src = """
    tree { root { condition c; } }
    env { var x: int in 0..9 = 0; var f: bool = true; }
    condition c { success_when: !(x - (1 + 2) >= 4 && f) || x == 0; }
    """
    model = elaborate(parse(src))
    pred = model.behaviors["c"].success_when
    reparsed = elaborate(parse(src.replace(
        "!(x - (1 + 2) >= 4 && f) || x == 0",
        render_expr(pred)))).behaviors["c"].success_when
    assert reparsed == pred
