import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from btv.envmodel import (
    Assignment,
    BinOp,
    BoolLit,
    DomainViolationError,
    EnvSpec,
    ExhaustivenessError,
    ExpressionTypeError,
    IntLit,
    NotOp,
    UnknownVariableError,
    VarDecl,
    VarRef,
    ActionBehavior,
    ActionOutcome,
    apply_effects,
    check_invariants,
    check_outcome_exhaustiveness,
    compile_condition,
    compile_effects,
    compile_expr,
    compile_mask,
    compile_predicate,
    infer_type,
    _linear,
)
from btv.core import TickResult
from btv.frontend import _Parser
import conftest
from conftest import eval_expr, eval_predicate, naive_exhaustiveness, named


def spec_of(*decls, invariants=(), hook=()):
    return EnvSpec(tuple(decls), tuple(invariants), tuple(hook))


DIST = VarDecl("distance_to_object", 0, 10, 10)


def evaluate(pred, **env):
    """The tool's value of `pred` in `env`, compiled against a spec whose
    domains are just the values given."""
    spec = spec_of(*(VarDecl(n, None, None, v) if isinstance(v, bool) else VarDecl(n, v, v, v)
                     for n, v in env.items()))
    return compile_predicate(pred, spec)(tuple(env.values()))


def test_eval_distance_threshold():
    pred = BinOp(">=", VarRef("distance_to_object"), IntLit(5))
    assert evaluate(pred, distance_to_object=10) is True
    assert evaluate(pred, distance_to_object=4) is False


def test_eval_boundary_of_ge():
    pred = BinOp(">=", VarRef("x"), IntLit(5))
    assert evaluate(pred, x=5) is True


def test_eval_boolean_identity():
    pred = NotOp(BinOp("&&", VarRef("a"), VarRef("b")))
    assert evaluate(pred, a=True, b=False) is True


def test_eval_unknown_variable():
    with pytest.raises(UnknownVariableError):
        compile_expr(VarRef("ghost"), spec_of(VarDecl("x", 0, 9, 1)))


def test_apply_effects_decrement():
    spec = spec_of(DIST)
    out = apply_effects(spec, [Assignment("distance_to_object",
                                          BinOp("-", VarRef("distance_to_object"),
                                                IntLit(1)))],
                        (10,))
    assert out == (9,)


def test_apply_effects_empty():
    assert apply_effects(spec_of(DIST), [], (7,)) == (7,)


def test_apply_effects_simultaneous_read():
    spec = spec_of(VarDecl("x", 0, 9, 1), VarDecl("y", 0, 9, 2))
    out = apply_effects(spec, [Assignment("x", VarRef("y")),
                               Assignment("y", VarRef("x"))],
                        (1, 2))
    assert out == (2, 1)


def test_apply_effects_does_not_mutate_input():
    spec = spec_of(VarDecl("x", 0, 9, 0))
    values = (3,)
    assert apply_effects(spec, [Assignment("x", IntLit(5))], values) == (5,)
    assert values == (3,)


def test_apply_effects_domain_violation():
    spec = spec_of(VarDecl("x", 0, 3, 0))
    with pytest.raises(DomainViolationError) as err:
        apply_effects(spec, [Assignment("x", BinOp("-", VarRef("x"), IntLit(1)))],
                      (0,))
    assert err.value.name == "x"
    assert err.value.value == -1


def test_apply_effects_wrap_mode():
    spec = spec_of(VarDecl("t", 0, 100, 0))
    out = apply_effects(spec, [Assignment("t", BinOp("+", VarRef("t"), IntLit(1)))],
                        (100,), wrap=True)
    assert out == (0,)


def test_apply_effects_bool_assignment():
    spec = spec_of(VarDecl("f", None, None, False))
    out = apply_effects(spec, [Assignment("f", NotOp(VarRef("f")))], (False,))
    assert out == (True,) and out[0] is True


def test_check_invariants_case_study():
    safe = ("safe", BinOp(">=", VarRef("distance_to_object"), IntLit(3)))
    spec = spec_of(DIST, invariants=[safe])
    assert check_invariants(spec, (4,)) == []
    assert check_invariants(spec, (2,)) == ["safe"]
    assert check_invariants(spec_of(DIST), (0,)) == []


def test_exhaustiveness_rejects_false_guard():
    spec = spec_of(VarDecl("x", 0, 5, 0))
    behavior = ActionBehavior((ActionOutcome(BoolLit(False), TickResult.SUCCESS),))
    with pytest.raises(ExhaustivenessError):
        check_outcome_exhaustiveness(spec, "a1", behavior)
    with pytest.raises(ExhaustivenessError, match=r"holds for \{\}$"):
        check_outcome_exhaustiveness(spec, "a1", ActionBehavior(()))


def test_exhaustiveness_accepts_threshold_split():
    spec = spec_of(VarDecl("x", 0, 5, 0))
    behavior = ActionBehavior((
        ActionOutcome(BinOp("<=", VarRef("x"), IntLit(2)), TickResult.SUCCESS),
        ActionOutcome(BinOp(">", VarRef("x"), IntLit(2)), TickResult.FAILURE),
    ))
    check_outcome_exhaustiveness(spec, "a1", behavior)


def test_exhaustiveness_gap_is_found():
    spec = spec_of(VarDecl("x", 0, 5, 0))
    behavior = ActionBehavior((
        ActionOutcome(BinOp("<", VarRef("x"), IntLit(2)), TickResult.SUCCESS),
        ActionOutcome(BinOp(">", VarRef("x"), IntLit(2)), TickResult.FAILURE),
    ))
    with pytest.raises(ExhaustivenessError) as err:
        check_outcome_exhaustiveness(spec, "a1", behavior)
    assert "'x': 2" in str(err.value)


def test_exhaustiveness_skipped_for_huge_domains():
    spec = spec_of(VarDecl("x", 0, 200, 0), VarDecl("y", 0, 200, 0),
                   VarDecl("z", 0, 200, 0))
    total = BinOp("+", BinOp("+", VarRef("x"), VarRef("y")), VarRef("z"))
    behavior = ActionBehavior((ActionOutcome(BinOp("<", total, IntLit(0)),
                                             TickResult.SUCCESS),))
    # the guard's variables span 201^3 > 10^6 valuations: deferred to
    # runtime with a warning, no error here
    warning = check_outcome_exhaustiveness(spec, "a1", behavior)
    assert "'a1'" in warning and "8120601 valuations of x, y, z" in warning


def test_exhaustiveness_bounded_by_guard_variables_only():
    # 10^7 valuations in all, but the guard reads only x: checked, and the
    # gap at x >= 50 is found
    spec = spec_of(VarDecl("x", 0, 99, 0), VarDecl("y", 0, 999, 0),
                   VarDecl("z", 0, 99, 0))
    behavior = ActionBehavior((ActionOutcome(BinOp("<", VarRef("x"), IntLit(50)),
                                             TickResult.SUCCESS),))
    with pytest.raises(ExhaustivenessError) as err:
        check_outcome_exhaustiveness(spec, "a1", behavior)
    assert "'x': 50" in str(err.value)


@pytest.mark.parametrize("guard", [
    BinOp("+", VarRef("x"), IntLit(1)),
    BinOp("&&", VarRef("x"), VarRef("y")),
])
def test_exhaustiveness_rejects_ill_typed_guards(guard):
    # compile_mask builds a mask only for a predicate and joins masks with
    # `&` and `|`: an int operand, such as `x + 1`, or `x` in `x && y`, has
    # no mask, so the check types its guards first.
    spec = spec_of(VarDecl("x", 0, 3, 0), VarDecl("y", 0, 3, 0))
    behavior = ActionBehavior((ActionOutcome(BinOp("<", VarRef("x"), IntLit(9)),
                                             TickResult.SUCCESS),
                               ActionOutcome(guard, TickResult.FAILURE)))
    with pytest.raises(ExpressionTypeError):
        check_outcome_exhaustiveness(spec, "a1", behavior)


def test_infer_type_rules():
    spec = spec_of(VarDecl("x", 0, 9, 0), VarDecl("f", None, None, True))
    assert infer_type(BinOp("+", VarRef("x"), IntLit(1)), spec) == "int"
    assert infer_type(BinOp("<", VarRef("x"), IntLit(1)), spec) == "bool"
    assert infer_type(BinOp("&&", VarRef("f"), BoolLit(True)), spec) == "bool"
    with pytest.raises(ExpressionTypeError):
        infer_type(BinOp("==", VarRef("f"), BoolLit(True)), spec)
    with pytest.raises(ExpressionTypeError):
        infer_type(BinOp("&&", VarRef("x"), VarRef("f")), spec)
    with pytest.raises(ExpressionTypeError):
        infer_type(NotOp(VarRef("x")), spec)
    with pytest.raises(UnknownVariableError) as err:
        infer_type(VarRef("ghost"), spec)
    assert "ghost" in str(err.value)


# --- the tests' tree-walking evaluator vs CPython ------------------------------

int_exprs = st.recursive(
    st.one_of(st.integers(-20, 20).map(IntLit),
              st.sampled_from(["x", "y"]).map(VarRef)),
    lambda sub: st.tuples(st.sampled_from(["+", "-"]), sub, sub)
    .map(lambda t: BinOp(t[0], t[1], t[2])),
    max_leaves=8,
)

bool_exprs = st.recursive(
    st.one_of(st.booleans().map(BoolLit),
              st.tuples(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
                        int_exprs, int_exprs).map(lambda t: BinOp(t[0], t[1], t[2]))),
    lambda sub: st.one_of(
        sub.map(NotOp),
        st.tuples(st.sampled_from(["&&", "||"]), sub, sub)
        .map(lambda t: BinOp(t[0], t[1], t[2]))),
    max_leaves=8,
)


def to_python(e) -> str:
    if isinstance(e, IntLit):
        return f"({e.value})"
    if isinstance(e, BoolLit):
        return str(e.value)
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, NotOp):
        return f"(not {to_python(e.operand)})"
    op = {"&&": "and", "||": "or"}.get(e.op, e.op)
    return f"({to_python(e.left)} {op} {to_python(e.right)})"


@given(bool_exprs, st.integers(-20, 20), st.integers(-20, 20))
@settings(max_examples=300)
def test_eval_matches_cpython(expr, x, y):
    env = {"x": x, "y": y}
    expected = eval(to_python(expr), {}, env)
    assert eval_expr(expr, env) == expected


# --- generated functions vs the tree-walking evaluator ---------------------------

XYF = spec_of(VarDecl("x", -20, 20, 0), VarDecl("y", -20, 20, 0),
              VarDecl("f", None, None, False))

typed_bool_exprs = st.recursive(
    st.one_of(st.booleans().map(BoolLit), st.just(VarRef("f")),
              st.tuples(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
                        int_exprs, int_exprs).map(lambda t: BinOp(t[0], t[1], t[2]))),
    lambda sub: st.one_of(
        sub.map(NotOp),
        st.tuples(st.sampled_from(["&&", "||"]), sub, sub)
        .map(lambda t: BinOp(t[0], t[1], t[2]))),
    max_leaves=8,
)

valuations = st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.booleans())


def outcome(fn, *args):
    """fn's value with its exact type, or the error it raised."""
    try:
        value = fn(*args)
    except (ExpressionTypeError, DomainViolationError) as err:
        return type(err), str(err)
    return type(value), value


@given(st.one_of(int_exprs, typed_bool_exprs), valuations)
@settings(max_examples=300)
def test_compiled_expressions_match_evaluator(expr, values):
    env = named(XYF, values)
    assert outcome(compile_expr(expr, XYF), values) == outcome(eval_expr, expr, env)
    if infer_type(expr, XYF) == "bool":
        assert outcome(compile_predicate(expr, XYF), values) == \
            outcome(eval_predicate, expr, env)
        assert outcome(compile_predicate(NotOp(expr), XYF), values) == \
            outcome(eval_predicate, NotOp(expr), env)
        # A condition's two tests, from one rendering, are p and not p.
        success, failure = compile_condition(expr, XYF)
        assert outcome(success, values) == outcome(eval_predicate, expr, env)
        assert outcome(failure, values) == outcome(eval_predicate, NotOp(expr), env)
    else:
        # A non-boolean predicate is refused when compiled; the evaluator
        # finds it when evaluating.
        with pytest.raises(ExpressionTypeError, match="is not boolean"):
            compile_predicate(expr, XYF)
        with pytest.raises(ExpressionTypeError, match="is not boolean"):
            compile_condition(expr, XYF)
        with pytest.raises(ExpressionTypeError):
            eval_predicate(expr, env)


# At (x, y, f) = (1, -2, True): x < 0, y > 0 and !f are false, f is true.
FALSE_AT_1_M2_T = [BinOp("<", VarRef("x"), IntLit(0)), VarRef("f"),
                   BinOp(">", VarRef("y"), IntLit(0)), NotOp(VarRef("f"))]


@given(st.lists(typed_bool_exprs, max_size=3), valuations)
@example([], (1, -2, True))
@example(FALSE_AT_1_M2_T[:1], (1, -2, True))
@example(FALSE_AT_1_M2_T[2:], (1, -2, True))
@example(FALSE_AT_1_M2_T[:3], (1, -2, True))
@settings(max_examples=300)
def test_fused_invariants_name_the_false_ones_in_order(preds, values):
    """check_invariants names the invariants the evaluator finds false, in
    declaration order, and the fused predicate holds exactly when it names
    none."""
    spec = spec_of(*XYF.variables, invariants=[(f"inv{k}", p) for k, p in enumerate(preds)])
    env = named(spec, values)
    expected = [name for name, p in spec.invariants if not eval_predicate(p, env)]
    assert check_invariants(spec, values) == expected
    assert outcome(spec.invariants_hold, values) == (bool, not expected)


def test_one_shape_keeps_each_expressions_literals_and_slots():
    spec = spec_of(VarDecl("x", 0, 3, 0), VarDecl("y", 0, 3, 0))
    x1, x2, y1 = (compile_predicate(BinOp(">", VarRef(name), IntLit(k)), spec)
                  for name, k in [("x", 1), ("x", 2), ("y", 1)])
    assert x1.__code__ is x2.__code__ is y1.__code__
    for values in spec.valuations(["x", "y"]):
        x, y = values
        assert (x1(values), x2(values), y1(values)) == (x > 1, x > 2, y > 1)


small_int_exprs = st.recursive(
    st.one_of(st.integers(-3, 3).map(IntLit), st.sampled_from(["x", "y"]).map(VarRef)),
    lambda sub: st.tuples(st.sampled_from(["+", "-"]), sub, sub)
    .map(lambda t: BinOp(t[0], t[1], t[2])),
    max_leaves=4,
)
assignments = st.lists(
    st.one_of(st.tuples(st.sampled_from(["x", "y"]), small_int_exprs),
              st.tuples(st.just("f"), typed_bool_exprs))
    .map(lambda t: Assignment(*t)),
    min_size=1, max_size=3)


@given(assignments, st.tuples(st.integers(0, 4), st.integers(-2, 2), st.booleans()),
       st.booleans())
@settings(max_examples=300)
def test_compiled_effects_match_apply_effects(effects, values, wrap):
    spec = spec_of(VarDecl("x", 0, 4, 0), VarDecl("y", -2, 2, 0),
                   VarDecl("f", None, None, False))
    compiled = outcome(compile_effects(spec, effects, wrap=wrap), values)
    expected = outcome(lambda: conftest.apply_effects(spec, effects, values, wrap=wrap))
    assert compiled == expected


# --- mask-wise exhaustiveness vs the per-valuation oracle ----------------------

# x and y have 100 values each; on the tie, y, the later name, is the mask
# variable, so row x = gap // 100 is a 100-bit mask with the gap at bit
# gap % 100. The gaps sit at bit 0 and the last bit of the first, an
# interior and the last row.
@pytest.mark.parametrize("gap", [0, 99, 5000, 5099, 9900, 9999])
def test_exhaustiveness_reports_the_gap_at_any_row_edge(gap):
    spec = spec_of(VarDecl("x", 0, 99, 0), VarDecl("y", -50, 49, 0))
    x, y = gap // 100, gap % 100 - 50
    point = BinOp("&&", BinOp("==", VarRef("x"), IntLit(x)),
                  BinOp("==", VarRef("y"), IntLit(y)))
    behavior = ActionBehavior((ActionOutcome(NotOp(point), TickResult.SUCCESS),))
    with pytest.raises(ExhaustivenessError) as err:
        check_outcome_exhaustiveness(spec, "a1", behavior)
    assert str(err.value) == f"action 'a1': no outcome guard holds for {{'x': {x}, 'y': {y}}}"


@st.composite
def guard_models(draw):
    """A spec of 1-4 variables (bools, and integers with negative lower
    bounds and one-value domains; under 8,192 valuations in all) and 1-4
    well-typed guards over them. The last guard is often the negation of the
    others with a hole cut out at a random point, so that a gap can fall
    anywhere in product order."""
    decls, size = [], 1
    for i in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            decls.append(VarDecl(f"v{i}", None, None, False))
        else:
            lo = draw(st.integers(-6, 3))
            width = draw(st.integers(1, max(1, min(40, 4096 // size))))
            decls.append(VarDecl(f"v{i}", lo, lo + width - 1, lo))
        size = spec_of(*decls).domain_product_size(d.name for d in decls)
    ints = [d for d in decls if not d.is_bool]
    int_leaves = st.integers(-8, 8).map(IntLit)
    if ints:
        int_leaves = int_leaves | st.sampled_from([VarRef(d.name) for d in ints])
    int_expr = st.recursive(
        int_leaves,
        lambda sub: st.builds(BinOp, st.sampled_from(["+", "-"]), sub, sub),
        max_leaves=4)
    bool_leaves = st.booleans().map(BoolLit) | st.builds(
        BinOp, st.sampled_from(["<", "<=", ">", ">=", "==", "!="]), int_expr, int_expr)
    bools = [VarRef(d.name) for d in decls if d.is_bool]
    if bools:
        bool_leaves = bool_leaves | st.sampled_from(bools)
    bool_expr = st.recursive(
        bool_leaves,
        lambda sub: sub.map(NotOp) | st.builds(BinOp, st.sampled_from(["&&", "||"]),
                                                sub, sub),
        max_leaves=6)
    guards = draw(st.lists(bool_expr, min_size=1, max_size=3))
    if draw(st.booleans()):
        rest = guards[0]
        for g in guards[1:]:
            rest = BinOp("||", rest, g)
        complement = NotOp(rest)
        point = []
        for d in draw(st.lists(st.sampled_from(decls), unique=True)):
            if d.is_bool:
                point.append(VarRef(d.name) if draw(st.booleans())
                             else NotOp(VarRef(d.name)))
            else:
                k = IntLit(draw(st.integers(d.lo, d.hi)))
                point.append(BinOp("==", VarRef(d.name), k))
        if point:
            hole = point[0]
            for term in point[1:]:
                hole = BinOp("&&", hole, term)
            complement = BinOp("&&", complement, NotOp(hole))
        guards.append(complement)
    behavior = ActionBehavior(tuple(ActionOutcome(g, TickResult.SUCCESS)
                                    for g in guards))
    return spec_of(*decls), behavior


def result_or_error(fn, *args):
    try:
        return "returned", fn(*args)
    except ExhaustivenessError as err:
        return type(err), str(err)


def model_of(*decls, guards=(), avoid=()):
    """A spec of `decls` and one action whose guards are the source texts
    `guards`, and then one more that holds except at the valuations
    `avoid`, each a dict of values."""
    exprs = [_Parser(g).parse_expr() for g in guards]
    if avoid:
        exprs.append(_Parser(" && ".join(
            "(" + " || ".join(f"{n} != {v}" for n, v in point.items()) + ")"
            for point in avoid)).parse_expr())
    return spec_of(*decls), ActionBehavior(tuple(ActionOutcome(g, TickResult.SUCCESS)
                                                 for g in exprs))


# The first gap in valuation order is not in the first row with a gap when
# the mask variable, the largest domain, is not last: here it is first, and
# then in the middle.
@example(model_of(VarDecl("a", 0, 9, 0), VarDecl("b", 0, 1, 0),
                  avoid=[{"a": 7, "b": 0}, {"a": 3, "b": 1}]))
@example(model_of(VarDecl("a", 0, 1, 0), VarDecl("b", 0, 9, 0), VarDecl("c", 0, 1, 0),
                  avoid=[{"a": 0, "b": 7, "c": 0}, {"a": 0, "b": 3, "c": 1},
                         {"a": 1, "b": 0, "c": 0}]))
@given(guard_models())
@settings(max_examples=200, deadline=None)
def test_mask_exhaustiveness_matches_naive_oracle(model):
    spec, behavior = model
    assert result_or_error(check_outcome_exhaustiveness, spec, "a1", behavior) == \
        result_or_error(naive_exhaustiveness, spec, "a1", behavior)


X, Y = VarDecl("x", 0, 9, 0), VarDecl("y", -4, 4, 0)


# `k` picks the mask variable among None and the spec's variables.
@example(model_of(X, Y, guards=["x + x + x >= 7 || x + x < y"]), 1)
@example(model_of(X, Y, guards=["0 - x < y", "y - x - x > 0 - 3"]), 1)
@example(model_of(X, Y, guards=["x + x == y || x + x + x != y + 1", "y - x == 0 - x"]), 1)
@example(model_of(VarDecl("x", -6, -1, -6), Y, guards=["x - y >= 0 - 3 && x <= y"]), 1)
@example(model_of(VarDecl("b", None, None, False), VarDecl("c", None, None, False), X,
                  guards=["b || c && x > 1", "!b && (c || b)"]), 1)
@example(model_of(VarDecl("x", 4, 4, 4), Y,
                  guards=["x == 4 || x != 4 && x < y", "x + x > 8"]), 1)
@given(guard_models(), st.integers(0, 4))
@settings(max_examples=100, deadline=None)
def test_compile_mask_matches_evaluator(model, k):
    spec, behavior = model
    names = list(spec.slots)
    z = [None, *names][k % (len(names) + 1)]
    domain = spec.domains([z])[0] if z else range(1)
    outer = [n for n in names if n != z]
    slots = {n: i for i, n in enumerate(outer)}
    rows = list(spec.valuations(outer))
    for row in rows[::len(rows) // 20 + 1]:
        envs = [{**dict(zip(outer, row)), z: v} for v in domain]
        for o in behavior.outcomes:
            for e in (o.guard, *_subexpressions(o.guard)):
                want = [eval_expr(e, env) for env in envs]
                if infer_type(e, spec) == "bool":
                    mask = compile_mask(e, slots, z, domain)(row)
                    assert mask == sum(1 << i for i, holds in enumerate(want) if holds)
                else:
                    form = _linear(e)
                    assert [sum(c * (env[v] if v else 1) for v, c in form.items())
                            for env in envs] == want


def _subexpressions(e):
    if isinstance(e, NotOp):
        yield e.operand
        yield from _subexpressions(e.operand)
    elif isinstance(e, BinOp):
        for side in (e.left, e.right):
            yield side
            yield from _subexpressions(side)
