import string
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from btv import bundled_model_path
from btv.cli import main
from btv.core import ModelError, NodeType, bfs_numbering
from btv.frontend import (
    MAX_EXPR_DEPTH,
    MAX_EXPR_NESTING,
    MAX_TREE_DEPTH,
    ElaborationError,
    ParseError,
    _tokenize,
    build_tree,
    elaborate,
    load_model,
    parse,
)
from btv.envmodel import BinOp, BoolLit, IntLit, NotOp, UnknownVariableError, VarRef

import conftest
from conftest import named, render_expr, render_model
from randmodels import GenParams, random_model_source

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

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


TWICE_ASSIGNED = """tree { root { action a; } }
env { var x: int in 0..3 = 3; var y: int in 0..3 = 0; }
action a { outcome SUCCESS when true { x := x + 1; x := 0; } }
"""


def test_a_variable_assigned_twice_in_an_outcome_is_refused_with_both_spans():
    """Every target of one multiple assignment is distinct: the block
    above would report x := 4 leaving the domain, a value never written."""
    with pytest.raises(ParseError) as err:
        parse(TWICE_ASSIGNED)
    assert (err.value.line, err.value.col) == (3, 52)
    assert str(err.value) == \
        "3:52: duplicate assignment to 'x' in one block (first assigned at 3:40)"


def test_a_variable_assigned_twice_in_the_hook_is_refused_with_both_spans():
    src = TWICE_ASSIGNED.replace("x := x + 1; x := 0;", "x := 0;") + \
        "on_root_result {\n  y := y + 1;\n  x := 1;\n  y := 0;\n}\n"
    with pytest.raises(ParseError) as err:
        parse(src)
    assert str(err.value) == \
        "7:3: duplicate assignment to 'y' in one block (first assigned at 5:3)"
    # Distinct targets, each once per block, still parse.
    model = elaborate(parse(src.replace("y := 0;", "")))
    assert [a.name for a in model.env.root_result_hook] == ["y", "x"]


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
    # Headroom for a library caller that is already 200 frames deep, and 600
    # frames deep for the expression nesting limit.
    for source, frames in ((nested_source(MAX_TREE_DEPTH, "true"), 200),
                           (nested_source(1, TALL), 200),
                           (nested_source(1, PARENS), 600),
                           (nested_source(1, NOTS), 600)):
        at_stack_depth(frames, lambda: elaborate(parse(source)))


def test_comparison_and_not_do_not_chain():
    with pytest.raises(ParseError, match="^3:35: expected ';', found '<'$"):
        parse(nested_source(1, "a < b < c"))
    with pytest.raises(ParseError, match="^3:33: expected an expression, found '!'$"):
        parse(nested_source(1, "x + !y"))


# Integer literals that int() cannot read: a non-ASCII digit and more digits
# than int() converts. Each with its ParseError.
BAD_INTEGERS = [
    ("tree { root { condition c; } }\nenv { var x: int in 0..\u00b2 = 0; }\n"
     "condition c { success_when: x == 0; }\n",
     "2:24: unexpected character '\u00b2'"),
    ("tree { root { condition c; } }\nenv { var x: int in 0.." + "9" * 5000 +
     " = 0; }\ncondition c { success_when: x == 0; }\n",
     "2:24: integer literal of 5000 digits is too long"),
    ("tree { root id = \u00b2 { condition c; } }\nenv { var x: int in 0..1 = 0; }\n"
     "condition c { success_when: x == 0; }\n",
     "1:18: unexpected character '\u00b2'"),
]


@pytest.mark.parametrize("source,message", BAD_INTEGERS,
                         ids=["superscript-bound", "5000-digit-bound", "superscript-id"])
def test_bad_integer_literal_is_a_parse_error(source, message, tmp_path, capsys):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert str(err.value) == message
    path = tmp_path / "bad.bt"
    path.write_text(source, encoding="utf-8")
    for command in ("validate", "check"):
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {err.value}\n"


# Tokens of the model grammar, for token soup.
GRAMMAR_TOKENS = sorted({
    "tree", "root", "sequence", "fallback", "condition", "action", "env", "var",
    "int", "bool", "in", "outcome", "when", "on_root_result", "invariant",
    "success_when", "SUCCESS", "RUNNING", "FAILURE", "true", "false", "id",
    "x", "y", "c", "a", "s", "0", "1", "3", "10",
    "{", "}", "(", ")", ";", ":", "=", ":=", "..", ",",
    "<", "<=", ">", ">=", "==", "!=", "+", "-", "!", "&&", "||", "//",
})
token_soup = st.lists(st.sampled_from(GRAMMAR_TOKENS), max_size=60).map(" ".join)


@st.composite
def spliced_models(draw):
    """robot_wall.bt with a slice replaced by token soup."""
    i = draw(st.integers(0, len(ROBOT_WALL)))
    j = draw(st.integers(i, min(i + 40, len(ROBOT_WALL))))
    return ROBOT_WALL[:i] + draw(token_soup) + ROBOT_WALL[j:]


@settings(max_examples=600, deadline=None)
@given(st.one_of(st.text(), token_soup, spliced_models()))
@example(BAD_INTEGERS[0][0])
@example(BAD_INTEGERS[1][0])
@example(BAD_INTEGERS[2][0])
def test_arbitrary_text_raises_only_model_errors(text):
    try:
        elaborate(parse(text))
    except ModelError:
        pass


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

    # A wide level: 300 leaves under one fallback, every 50th a sequence
    # whose two leaves are numbered after the whole level.
    kids = [f"sequence s{i} {{ condition d{i}; condition e{i}; }}" if i % 50 == 0
            else f"condition c{i};" for i in range(300)]
    tree = build_tree(parse(f"tree {{ root {{ fallback f {{ {' '.join(kids)} }} }} }}"))
    level2 = [f"s{i}" if i % 50 == 0 else f"c{i}" for i in range(300)]
    level3 = [name for i in range(0, 300, 50) for name in (f"d{i}", f"e{i}")]
    assert tree.n_id == {name: i for i, name in enumerate(["root", "f", *level2, *level3])}
    assert tree.n_id == bfs_numbering(tree)


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
    assert named(model.env, model.env.initial_state())["x"] == -2


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


def height(e) -> int:
    if isinstance(e, BinOp):
        return 1 + max(height(e.left), height(e.right))
    if isinstance(e, NotOp):
        return 1 + height(e.operand)
    return 1


leaves = st.one_of(st.integers(-20, 20).map(IntLit), st.booleans().map(BoolLit),
                   st.sampled_from(["x", "y", "f"]).map(VarRef))
exprs = st.recursive(leaves, lambda sub: st.one_of(
    st.builds(BinOp, st.sampled_from(["||", "&&", "<", "<=", ">", ">=", "==", "!=",
                                      "+", "-"]), sub, sub),
    st.builds(NotOp, sub),
    st.builds(lambda e: BinOp("-", IntLit(0), e), sub),
), max_leaves=25)


@settings(max_examples=500, deadline=None)
@given(exprs)
def test_rendered_expressions_parse_back(e):
    # Each level adds at most a `!` and a pair of parentheses, and a negative
    # literal one unary `-`: this keeps the text inside MAX_EXPR_NESTING.
    assume(2 * height(e) + 1 <= MAX_EXPR_NESTING)
    assert parse(nested_source(1, render_expr(e))).conditions[0].success_when == e


# --- the tokenizer against the character-at-a-time oracle ---------------------

def tokens_or_error(tokenize, text: str):
    """(kind, text, line, col) of every token, or the ParseError's text."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    except ParseError as err:
        return str(err)


# Every punctuation token, the line ends, blanks and comments, ASCII letters
# and digits, letters outside ASCII, and characters that are word characters
# but not letters (a superscript two, a half, an Arabic-Indic three) or not
# tokens at all.
TOKENIZER_PIECES = (
    "{", "}", "(", ")", ";", ":", "=", "<", ">", "+", "-", "!", ",",
    ":=", "==", "!=", "<=", ">=", "&&", "||", "..", ".", "&", "|", "/",
    "\r", "\r\n", "\n", "\t", " ", "//",
    *string.ascii_letters, *string.digits, "_",
    "é", "ß", "²", "½", "٣", "#",
)


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.sampled_from(TOKENIZER_PIECES), max_size=30).map("".join))
@example("")
@example("a // trailing comment")
@example("a \t ")
@example("x\r\r\ny\n\rz // c\r")
@example("12ab 1² a²½٣ ²a")
@example("é٣ ٣ #")
def test_tokenizer_matches_the_character_oracle(text):
    assert tokens_or_error(_tokenize, text) == tokens_or_error(conftest._tokenize, text)


def bundled_and_benchmark_sources():
    for name in ("robot_wall.bt", "robot_wall_buggy.bt", "fallback_running.bt"):
        yield name, bundled_model_path(name).read_text(encoding="utf-8")
    for workload in gen.WORKLOADS:
        for size in gen.SIZES:
            for seed in (0, 7):
                yield f"{workload}-{size}-{seed}", gen.generate(workload, seed, size).source


def test_tokenizer_matches_the_oracle_on_real_models():
    for name, text in bundled_and_benchmark_sources():
        tokens = tokens_or_error(_tokenize, text)
        assert isinstance(tokens, list), name
        assert tokens == tokens_or_error(conftest._tokenize, text), name
        for crlf in (text.replace("\n", "\r\n"), text.replace("\n", "\r")):
            assert tokens_or_error(_tokenize, crlf) == \
                tokens_or_error(conftest._tokenize, crlf), name
