"""Environment model: bounded variables, predicates, and leaf behaviors.

Variables are integers over a declared finite interval, or booleans.
Conditions succeed when their predicate holds (failure is the negation, so
conditions are exhaustive by construction). Actions carry guarded outcome
rules; guards must cover every reachable valuation, which is checked by
enumeration at load time when the guards' variables span few enough
valuations.

compile_expr, compile_predicate, compile_conjunction, compile_condition
and compile_effects type-check an expression or assignment list and turn it
into one generated Python function of a values tuple (compile_condition
into two, a predicate and its negation): every guard, every effect list and
each model's invariants, fused into one predicate, are evaluated by such a
function, and the tests hold them to a tree-walking evaluator. Each literal
and slot index in the generated source is a parameter, so expressions of one
shape share one code object, compiled once. compile_mask, their row form,
maps a valuation of all variables but one, z, to the bitmask of z's values
where a boolean expression holds. Every comparison is linear in z, so the
exhaustiveness check, which may cover up to EXHAUSTIVENESS_ENUM_LIMIT
valuations, evaluates each guard once per valuation of the other variables
rather than once per valuation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import product
from math import prod
from types import CodeType, FunctionType
from typing import Callable, Iterable, Mapping, Sequence, Union

from .core import ModelError, TickResult

# Load-time exhaustiveness enumeration is skipped above this many valuations
# of the variables an action's guards mention.
EXHAUSTIVENESS_ENUM_LIMIT = 10**6


class ExpressionTypeError(ModelError):
    pass


class UnknownVariableError(ModelError):
    pass


class DomainViolationError(ModelError):
    """An assignment left a variable's declared domain."""

    def __init__(self, name: str, value: int):
        super().__init__(f"assignment leaves domain: {name} := {value}")
        self.name = name
        self.value = value


class ExhaustivenessError(ModelError):
    pass


# --- expressions -----------------------------------------------------------

@dataclass(frozen=True)
class IntLit:
    value: int
    span: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class BoolLit:
    value: bool
    span: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class VarRef:
    name: str
    span: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # + - < <= > >= == != && ||
    left: "Expr"
    right: "Expr"
    span: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class NotOp:
    operand: "Expr"
    span: object = field(default=None, compare=False, repr=False)


Expr = Union[IntLit, BoolLit, VarRef, BinOp, NotOp]

ARITH_OPS = ("+", "-")
CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")
BOOL_OPS = ("&&", "||")


@dataclass(frozen=True)
class Assignment:
    name: str
    expr: Expr
    span: object = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class VarDecl:
    """Integer variable over [lo, hi], or boolean when lo/hi are None."""

    name: str
    lo: int | None
    hi: int | None
    initial: int | bool

    @property
    def is_bool(self) -> bool:
        return self.lo is None

    def contains(self, value) -> bool:
        if self.is_bool:
            return isinstance(value, bool)
        return isinstance(value, int) and not isinstance(value, bool) \
            and self.lo <= value <= self.hi


@dataclass(frozen=True)
class EnvSpec:
    variables: tuple[VarDecl, ...]
    invariants: tuple[tuple[str, Expr], ...] = ()
    root_result_hook: tuple[Assignment, ...] = ()

    @cached_property
    def slots(self) -> Mapping[str, int]:
        """Variable name -> position in a valuation's values tuple, which
        holds the values in declaration order."""
        return {v.name: i for i, v in enumerate(self.variables)}

    @cached_property
    def invariants_hold(self) -> Callable[[tuple], bool]:
        """One generated function of a values tuple laid out by `slots`:
        whether every invariant holds."""
        return compile_conjunction([pred for _, pred in self.invariants], self)

    def decl(self, name: str) -> VarDecl:
        slot = self.slots.get(name)
        if slot is None:
            raise UnknownVariableError(f"unknown variable {name!r}")
        return self.variables[slot]

    def initial_state(self) -> tuple:
        """The values tuple of the initial values."""
        for v in self.variables:
            if not v.contains(v.initial):
                raise DomainViolationError(v.name, v.initial)
        return tuple(v.initial for v in self.variables)

    def domain_product_size(self, names: Iterable[str]) -> int:
        """Number of valuations of the named variables."""
        size = 1
        for v in map(self.decl, names):
            size *= 2 if v.is_bool else (v.hi - v.lo + 1)
        return size

    def domains(self, names: Iterable[str]) -> list[Sequence]:
        """The values of each named variable, in ascending order."""
        return [(False, True) if d.is_bool else range(d.lo, d.hi + 1)
                for d in map(self.decl, names)]

    def valuations(self, names: Iterable[str]) -> Iterable[tuple]:
        """All valuations of the given variables over their domains, as
        values tuples in the order of `names`."""
        return product(*self.domains(names))


# --- leaf behaviors --------------------------------------------------------

@dataclass(frozen=True)
class ConditionBehavior:
    success_when: Expr


@dataclass(frozen=True)
class ActionOutcome:
    guard: Expr
    result: TickResult
    effects: tuple[Assignment, ...] = ()


@dataclass(frozen=True)
class ActionBehavior:
    outcomes: tuple[ActionOutcome, ...]


LeafBehavior = Union[ConditionBehavior, ActionBehavior]


# --- typing and evaluation --------------------------------------------------

def infer_type(e: Expr, spec: EnvSpec) -> str:
    """Return "int" or "bool"; raise ExpressionTypeError on ill-typed trees."""
    if isinstance(e, IntLit):
        return "int"
    if isinstance(e, BoolLit):
        return "bool"
    if isinstance(e, VarRef):
        try:
            decl = spec.decl(e.name)
        except UnknownVariableError:
            raise UnknownVariableError(_at(e.span, f"unknown variable {e.name!r}")) from None
        return "bool" if decl.is_bool else "int"
    if isinstance(e, NotOp):
        if infer_type(e.operand, spec) != "bool":
            raise ExpressionTypeError(_at(e.span, "'!' needs a boolean operand"))
        return "bool"
    if isinstance(e, BinOp):
        lt = infer_type(e.left, spec)
        rt = infer_type(e.right, spec)
        if e.op in ARITH_OPS:
            if lt != "int" or rt != "int":
                raise ExpressionTypeError(_at(e.span, f"'{e.op}' needs integer operands"))
            return "int"
        if e.op in CMP_OPS:
            if lt != "int" or rt != "int":
                raise ExpressionTypeError(
                    _at(e.span, f"comparison '{e.op}' needs integer operands"))
            return "bool"
        if e.op in BOOL_OPS:
            if lt != "bool" or rt != "bool":
                raise ExpressionTypeError(_at(e.span, f"'{e.op}' needs boolean operands"))
            return "bool"
    raise TypeError(f"not an expression node: {e!r}")


def _at(span, msg: str) -> str:
    return f"{span}: {msg}" if span is not None else msg


def expr_variables(e: Expr) -> set[str]:
    if isinstance(e, VarRef):
        return {e.name}
    if isinstance(e, NotOp):
        return expr_variables(e.operand)
    if isinstance(e, BinOp):
        return expr_variables(e.left) | expr_variables(e.right)
    return set()


def apply_effects(spec: EnvSpec, effects: Iterable[Assignment], values: tuple,
                  *, wrap: bool = False) -> tuple:
    """The values tuple, laid out by spec.slots, after the assignments, with
    compile_effects' semantics."""
    return compile_effects(spec, effects, wrap=wrap)(values)


def check_invariants(spec: EnvSpec, values: tuple) -> list[str]:
    """Names of invariant predicates that evaluate to false, in declaration
    order, for a values tuple laid out by spec.slots. The fused
    spec.invariants_hold decides; only when it fails are the invariants
    evaluated one by one, to name them."""
    if spec.invariants_hold(values):
        return []
    return [name for name, pred in spec.invariants
            if not compile_predicate(pred, spec)(values)]


def check_outcome_exhaustiveness(spec: EnvSpec, leaf: str,
                                 behavior: ActionBehavior) -> str | None:
    """Verify at least one outcome guard holds for every valuation.

    Enumerates only the variables the guards mention (other variables cannot
    influence them), and one of those, z, with the largest domain (the later
    in sorted order on a tie), as a bitmask: for each valuation of the others,
    a row, the guards' masks (compile_mask) must cover all of z's domain. The
    error names the first valuation no guard covers, in the order of
    spec.valuations. When the guards' variables span more than
    EXHAUSTIVENESS_ENUM_LIMIT valuations the check is skipped and a warning
    is returned; a non-exhaustive action then surfaces at run time as a
    deadlock. Returns None when the check ran and passed. A guard that is
    not a well-typed boolean expression raises ExpressionTypeError (or
    UnknownVariableError) first.
    """
    for o in behavior.outcomes:
        if infer_type(o.guard, spec) != "bool":
            raise ExpressionTypeError(
                _at(o.guard.span, f"an outcome guard of {leaf!r} is not boolean"))
    names = sorted(set().union(*[expr_variables(o.guard) for o in behavior.outcomes]))
    size = spec.domain_product_size(names)
    if size > EXHAUSTIVENESS_ENUM_LIMIT:
        return (f"action {leaf!r}: outcome exhaustiveness not checked, its guards "
                f"range over {size} valuations of {', '.join(names)} (limit "
                f"{EXHAUSTIVENESS_ENUM_LIMIT})")
    domains = spec.domains(names)
    # z = names[p]; with no variables, a one-bit mask over no variable.
    p = max(range(len(names)), key=lambda i: (len(domains[i]), i), default=0)
    z, zdomain = (names[p], domains.pop(p)) if names else (None, range(1))
    slots = {n: i for i, n in enumerate(names[:p] + names[p + 1:])}
    # With no outcomes, no guard holds anywhere.
    guards = [compile_mask(g, slots, z, zdomain)
              for g in [o.guard for o in behavior.outcomes] or [BoolLit(False)]]
    full = (1 << len(zdomain)) - 1
    # The first uncovered valuation is in the first block of rows with a gap,
    # the rows that share their values of names[:p]: the lowest gap bit of
    # the block, in its first row that has it.
    block = prod(map(len, domains[p:]))
    first = None
    for r, row in enumerate(product(*domains)):
        if first and r % block == 0:
            break
        covered = 0
        for guard in guards:
            covered |= guard(row)
            if covered == full:
                break
        else:
            gap = full ^ covered
            bit = (gap & -gap).bit_length() - 1
            if first is None or bit < first[0]:
                first = bit, row
    if first is None:
        return None
    bit, row = first
    values = row[:p] + (zdomain[bit],) + row[p:]
    raise ExhaustivenessError(f"action {leaf!r}: no outcome guard holds "
                              f"for {dict(zip(names, values))}")


# --- compiled expressions ------------------------------------------------------

# A compiled expression maps a values tuple, laid out by the spec it was
# compiled against, to the expression's value in that valuation.
Compiled = Callable[[tuple], object]

# Generated source nests one bracket per level of an expression's height.
# CPython 3.10-3.13 stop near 200 levels ("too many nested parentheses", or
# a parser stack overflow at 197 for `(v[a0] and (v[a0] and ...))`), so a
# deeper expression is refused before any source is generated. The parser's
# MAX_EXPR_DEPTH keeps every model loaded from a file well below this.
MAX_COMPILED_DEPTH = 150
# How many distinct function sources keep their compiled code.
SHAPE_CACHE_SIZE = 1024

_PY_OPS = {"&&": "and", "||": "or"}


def expr_depth(e: Expr) -> int:
    """Height of an expression tree, level by level, without recursion."""
    height = 0
    level = [e]
    while level:
        height += 1
        below = []
        for node in level:
            if isinstance(node, BinOp):
                below += (node.left, node.right)
            elif isinstance(node, NotOp):
                below.append(node.operand)
        level = below
    return height


def _typed(e: Expr, spec: EnvSpec) -> str:
    """infer_type(e, spec), once `e` is known to be shallow enough to
    compile; infer_type and _Source.expr recurse once per level."""
    if expr_depth(e) > MAX_COMPILED_DEPTH:
        raise ModelError(_at(e.span, f"expression nested deeper than "
                                     f"{MAX_COMPILED_DEPTH} levels cannot be compiled"))
    return infer_type(e, spec)


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _shape(source: str) -> CodeType:
    """The code of the one function `source` defines."""
    module = compile(source, "<btv generated>", "exec")
    return next(c for c in module.co_consts if isinstance(c, CodeType))


class _Source:
    """The source of one function of a values tuple `v` laid out by
    spec.slots.

    Every literal and slot index in it is a parameter `a<i>` whose default
    is that value, so expressions of one shape, such as `x > 1` and `y > 2`,
    share one code object and differ only in their functions' defaults.
    """

    def __init__(self, spec: EnvSpec):
        self.slots = spec.slots
        self.defaults: list = []

    def arg(self, value) -> str:
        self.defaults.append(value)
        return f"a{len(self.defaults) - 1}"

    def expr(self, e: Expr) -> str:
        """Python for a well-typed `e`, with one bracket per operator."""
        if isinstance(e, (IntLit, BoolLit)):
            return self.arg(e.value)
        if isinstance(e, VarRef):
            return f"v[{self.arg(self.slots[e.name])}]"
        if isinstance(e, NotOp):
            return f"(not {self.expr(e.operand)})"
        return f"({self.expr(e.left)} {_PY_OPS.get(e.op, e.op)} {self.expr(e.right)})"

    def function(self, name: str, body: list[str]) -> Callable:
        params = "".join([f", a{i}" for i in range(len(self.defaults))])
        source = f"def {name}(v{params}):\n    " + "\n    ".join(body) + "\n"
        return FunctionType(_shape(source), globals(), None, tuple(self.defaults))


def compile_expr(e: Expr, spec: EnvSpec) -> Compiled:
    """One generated Python function computing e's value, with Python's
    operators, from a values tuple laid out by spec.slots.

    The expression is type-checked first (ExpressionTypeError,
    UnknownVariableError), so the function checks nothing: `&&`, `||` and
    `!` see only bools and give bools, `+` and `-` see only ints. Generated
    source rather than a closure per node, so that an evaluation is one
    Python call however large the expression; each distinct source is
    compiled once (_shape), which keeps loading a model of many similar
    expressions cheap. An expression deeper than MAX_COMPILED_DEPTH is a
    ModelError.
    """
    _typed(e, spec)
    src = _Source(spec)
    return src.function("expression", [f"return {src.expr(e)}"])


def _check_boolean(p: Expr, spec: EnvSpec) -> None:
    if _typed(p, spec) != "bool":
        raise ExpressionTypeError(_at(p.span, "predicate is not boolean"))


def compile_conjunction(preds: Sequence[Expr], spec: EnvSpec) -> Callable[[tuple], bool]:
    """compile_expr of the conjunction of `preds`: one function that is
    True when all of them hold, and always for none. A predicate that is not
    boolean is an ExpressionTypeError."""
    for p in preds:
        _check_boolean(p, spec)
    src = _Source(spec)
    return src.function("predicate", ["return " + (" and ".join(map(src.expr, preds)) or "True")])


def compile_predicate(p: Expr, spec: EnvSpec) -> Callable[[tuple], bool]:
    """compile_conjunction of the one predicate `p`."""
    return compile_conjunction((p,), spec)


def compile_condition(p: Expr, spec: EnvSpec
                      ) -> tuple[Callable[[tuple], bool], Callable[[tuple], bool]]:
    """compile_predicate of `p` and of its negation, `not (p)`: a
    condition's SUCCESS and FAILURE tests, from one type check and one
    rendering of `p`."""
    _check_boolean(p, spec)
    src = _Source(spec)
    body = src.expr(p)
    return (src.function("predicate", [f"return {body}"]),
            src.function("predicate", [f"return not {body}"]))


def compile_effects(spec: EnvSpec, effects: Iterable[Assignment], *,
                    wrap: bool = False) -> Callable[[tuple], tuple]:
    """One generated function mapping a values tuple laid out by spec.slots
    to the values after the assignments. Every right-hand side reads the
    incoming values, then each result is checked against its variable's
    domain and the writes happen, in listed order. An out-of-domain result
    raises DomainViolationError, or with `wrap` (root-result hooks) an
    integer wraps into its domain. A right-hand side is type-checked first:
    one whose type is not its variable's is an ExpressionTypeError.
    """
    src = _Source(spec)
    assign, check, written = [], [], {}
    for k, a in enumerate(effects):
        decl = spec.decl(a.name)
        want = "bool" if decl.is_bool else "int"
        got = _typed(a.expr, spec)
        if got != want:
            raise ExpressionTypeError(
                _at(a.span, f"{a.name} is {want} but the assigned expression is {got}"))
        assign.append(f"r{k} = {src.expr(a.expr)}")
        written[spec.slots[a.name]] = f"r{k}"
        if decl.is_bool:
            continue  # every boolean value is in the domain
        lo, hi = src.arg(decl.lo), src.arg(decl.hi)
        check.append(f"if not {lo} <= r{k} <= {hi}:")
        if wrap:
            check.append(f"    r{k} = {lo} + (r{k} - {lo}) % {src.arg(decl.hi - decl.lo + 1)}")
        else:
            check.append(f"    raise DomainViolationError({src.arg(a.name)}, r{k})")
    out = "".join(f"{written.get(i) or f'v[{src.arg(i)}]'}, " for i in range(len(spec.slots)))
    return src.function("effects", assign + check + [f"return ({out})"])


# --- guard masks -----------------------------------------------------------

def compile_mask(e: Expr, slots: Mapping[str, int], z: str | None,
                 domain: Sequence) -> Callable[[tuple], int]:
    """The well-typed boolean `e` as a function from a valuation of the
    variables in `slots`, laid out by them, to an int whose bit i is set when
    `e` holds there with z = domain[i]. With z None, `domain` is range(1).

    One closure per node. `&&` and `||` skip their right operand when the
    left decides. A comparison is linear (_linear), so its mask is a run of
    bits or one bit (_mask_lt, _mask_eq).
    """
    n = len(domain)
    full = (1 << n) - 1
    if isinstance(e, BoolLit):
        mask = full if e.value else 0
        return lambda o: mask
    if isinstance(e, VarRef):
        if e.name == z:
            return lambda o: 0b10  # z's domain is (False, True)
        slot = slots[e.name]
        return lambda o: full if o[slot] else 0
    if isinstance(e, NotOp) or e.op == "!=":  # x != y is !(x == y)
        inner = compile_mask(e.operand if isinstance(e, NotOp) else
                             BinOp("==", e.left, e.right), slots, z, domain)
        return lambda o: full ^ inner(o)
    if e.op in BOOL_OPS:
        left = compile_mask(e.left, slots, z, domain)
        right = compile_mask(e.right, slots, z, domain)
        if e.op == "&&":
            return lambda o: (m := left(o)) and m & right(o)
        return lambda o: m if (m := left(o)) == full else m | right(o)
    # left - right op 0, with z = domain[0] + i: a*i + k + the slots' terms.
    # Over the integers, x > 0 is -x < 0, and x <= 0 is x - 1 < 0.
    form = _linear(BinOp("-", e.left, e.right))
    a, k = form.pop(z, 0), form.pop("", 0)
    sign = -1 if e.op in (">", ">=") else 1
    k = sign * (k + a * domain[0]) - (e.op in ("<=", ">="))
    terms = [(slots[v], sign * c) for v, c in form.items() if c]
    at = partial(_mask_eq if e.op == "==" else _mask_lt, a=sign * a, n=n)
    if not terms:
        mask = at(k)
        return lambda o: mask
    if len(terms) == 1:
        [(s, c)] = terms
        return lambda o: at(k + c * o[s])
    read, coefs = zip(*terms)
    return lambda o: at(k + sum(map(operator.mul, coefs, map(o.__getitem__, read))))


def _mask_lt(t: int, a: int, n: int) -> int:
    """The bits i of range(n) where a*i + t < 0."""
    if a > 0:  # i < ceil(-t / a), which is -(t // a)
        return (1 << min(max(-(t // a), 0), n)) - 1
    if a < 0:  # i > t / -a, so from floor(t / -a) + 1 on
        return (1 << n) - (1 << min(max(t // -a + 1, 0), n))
    return (1 << n) - 1 if t < 0 else 0


def _mask_eq(t: int, a: int, n: int) -> int:
    """The bits i of range(n) where a*i + t == 0."""
    if a == 0:
        return (1 << n) - 1 if t == 0 else 0
    i, rest = divmod(-t, a)
    return 1 << i if rest == 0 and 0 <= i < n else 0


def _linear(e: Expr) -> dict[str, int]:
    """The well-typed integer `e` as {variable: coefficient}, its constant
    under ""; a coefficient may be 0."""
    if isinstance(e, IntLit):
        return {"": e.value}
    if isinstance(e, VarRef):
        return {e.name: 1}
    form = _linear(e.left)
    sign = 1 if e.op == "+" else -1
    for v, c in _linear(e.right).items():
        form[v] = form.get(v, 0) + sign * c
    return form
