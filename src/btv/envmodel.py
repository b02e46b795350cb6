"""Environment model: bounded variables, predicates, and leaf behaviors.

Variables are integers over a declared finite interval, or booleans.
Conditions succeed when their predicate holds (failure is the negation, so
conditions are exhaustive by construction). Actions carry guarded outcome
rules; guards must cover every reachable valuation, which is checked by
enumeration at load time when the guards' variables span few enough
valuations.

compile_expr, compile_predicate and compile_effects define expressions and
assignments as closures over a values tuple; every guard, effect and
invariant is evaluated by them, and the tests hold them to a tree-walking
evaluator. compile_column, their block form, turns a well-typed expression
into a tree of lazy `map` calls over a block of valuations laid out as one
column per variable (EnvSpec.value_columns), so that the exhaustiveness
check, which may enumerate up to EXHAUSTIVENESS_ENUM_LIMIT valuations,
evaluates its guards in C loops rather than with one closure call per
valuation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce
from itertools import chain, islice, product, repeat
from math import prod
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .core import ModelError, TickResult

# Load-time exhaustiveness enumeration is skipped above this many valuations
# of the variables an action's guards mention.
EXHAUSTIVENESS_ENUM_LIMIT = 10**6
# The enumeration evaluates the guards over this many valuations at a time,
# which bounds its memory.
EXHAUSTIVENESS_BLOCK = 1024


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

    def wrap(self, value: int) -> int:
        size = self.hi - self.lo + 1
        return self.lo + (value - self.lo) % size


@dataclass(frozen=True)
class EnvSpec:
    variables: tuple[VarDecl, ...]
    invariants: tuple[tuple[str, Expr], ...] = ()
    root_result_hook: tuple[Assignment, ...] = ()

    @cached_property
    def slots(self) -> Mapping[str, int]:
        """Variable name -> position in an EnvState's values tuple."""
        return {v.name: i for i, v in enumerate(self.variables)}

    @cached_property
    def compiled_invariants(self) -> tuple[tuple[str, Callable], ...]:
        return tuple((name, compile_predicate(pred, self.slots))
                     for name, pred in self.invariants)

    def decl(self, name: str) -> VarDecl:
        slot = self.slots.get(name)
        if slot is None:
            raise UnknownVariableError(f"unknown variable {name!r}")
        return self.variables[slot]

    def has(self, name: str) -> bool:
        return name in self.slots

    def initial_state(self) -> "EnvState":
        for v in self.variables:
            if not v.contains(v.initial):
                raise DomainViolationError(v.name, v.initial)
        return EnvState(tuple(v.initial for v in self.variables), self.slots)

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

    def value_columns(self, names: Iterable[str]) -> list[Iterator]:
        """valuations(names) transposed without building a tuple per
        valuation: one lazy iterator per variable, yielding its value in
        each valuation, in the same order."""
        domains = self.domains(names)
        sizes = [len(d) for d in domains]
        columns = []
        for i, domain in enumerate(domains):
            # The run of the domain repeats once per valuation of the earlier
            # variables, each value within it once per valuation of the later.
            values = chain.from_iterable(repeat(domain, prod(sizes[:i])))
            later = prod(sizes[i + 1:])
            if later > 1:
                values = chain.from_iterable(map(repeat, values, repeat(later)))
            columns.append(values)
        return columns


@dataclass(frozen=True)
class EnvState:
    """A concrete valuation: the values in declaration order.

    `slots` maps each name to its position. It is shared with the EnvSpec
    the state came from and takes no part in equality or hashing, so two
    valuations are equal exactly when their values tuples are.
    """

    values: tuple[int | bool, ...]
    slots: Mapping[str, int] = field(compare=False, repr=False)

    def get(self, name: str):
        slot = self.slots.get(name)
        if slot is None:
            raise UnknownVariableError(f"unknown variable {name!r}")
        return self.values[slot]

    def items(self) -> tuple[tuple[str, int | bool], ...]:
        """(name, value) pairs in declaration order."""
        return tuple(zip(self.slots, self.values))

    def as_dict(self) -> dict:
        return dict(zip(self.slots, self.values))


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


def domain_checked(decl: VarDecl, value, wrap: bool):
    """`value` if `decl`'s domain holds it; else wrapped into an integer
    domain when `wrap` is set, else DomainViolationError."""
    if decl.contains(value):
        return value
    if wrap and not decl.is_bool and isinstance(value, int):
        return decl.wrap(value)
    raise DomainViolationError(decl.name, value)


def apply_effects(spec: EnvSpec, effects: Iterable[Assignment], env: EnvState,
                  *, wrap: bool = False) -> EnvState:
    """Apply assignments to a valuation laid out by spec.slots, with
    compile_effects' semantics."""
    return EnvState(compile_effects(spec, effects, wrap=wrap)(env.values), env.slots)


def check_invariants(spec: EnvSpec, env: EnvState) -> list[str]:
    """Names of invariant predicates that evaluate to false."""
    if env.slots is spec.slots:
        values = env.values
        return [name for name, holds in spec.compiled_invariants if not holds(values)]
    # A valuation laid out by some other spec: go by name.
    return [name for name, pred in spec.invariants
            if not compile_predicate(pred, env.slots)(env.values)]


def check_outcome_exhaustiveness(spec: EnvSpec, leaf: str,
                                 behavior: ActionBehavior) -> str | None:
    """Verify at least one outcome guard holds for every valuation.

    Enumerates only the variables the guards mention (other variables cannot
    influence them), in the order of spec.valuations, EXHAUSTIVENESS_BLOCK
    valuations at a time; the error names the first valuation no guard
    covers. When those variables span more than EXHAUSTIVENESS_ENUM_LIMIT
    valuations the check is skipped and a warning is returned; a
    non-exhaustive action then surfaces at run time as a deadlock. Returns
    None when the check ran and passed. A guard that is not a well-typed
    boolean expression raises ExpressionTypeError (or UnknownVariableError)
    first.
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
    slots = {n: i for i, n in enumerate(names)}
    # With no outcomes, no guard holds anywhere.
    guards = [compile_column(g, slots)
              for g in [o.guard for o in behavior.outcomes] or [BoolLit(False)]]
    value_columns = spec.value_columns(names)
    for start in range(0, size, EXHAUSTIVENESS_BLOCK):
        n = min(EXHAUSTIVENESS_BLOCK, size - start)
        columns = [list(islice(c, n)) for c in value_columns]
        holds = list(reduce(partial(map, operator.or_),
                            [guard(columns, n) for guard in guards]))
        if not all(holds):
            i = holds.index(False)
            raise ExhaustivenessError(f"action {leaf!r}: no outcome guard holds "
                                      f"for {dict(zip(names, (c[i] for c in columns)))}")
    return None


# --- compiled expressions ------------------------------------------------------

# A compiled expression maps a values tuple, laid out by `slots`, to the
# expression's value in that valuation.
Compiled = Callable[[tuple], object]

_BINARY = {
    "+": operator.add, "-": operator.sub,
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq, "!=": operator.ne,
}


def compile_expr(e: Expr, slots: Mapping[str, int]) -> Compiled:
    """A closure computing e's value, with Python's operators, from a values
    tuple; `&&` and `||` short-circuit to bools.

    Closures rather than generated source, so that expression depth is
    bounded by the parser's expression limits, not by the compiler's.
    """
    if isinstance(e, (IntLit, BoolLit)):
        const = e.value
        return lambda values: const
    if isinstance(e, VarRef):
        slot = slots.get(e.name)
        if slot is None:
            name = e.name

            def unknown(values):
                raise UnknownVariableError(f"unknown variable {name!r}")
            return unknown
        return operator.itemgetter(slot)
    if isinstance(e, NotOp):
        inner = compile_expr(e.operand, slots)
        return lambda values: not inner(values)
    if isinstance(e, BinOp):
        left = compile_expr(e.left, slots)
        right = compile_expr(e.right, slots)
        if e.op == "&&":
            return lambda values: bool(left(values)) and bool(right(values))
        if e.op == "||":
            return lambda values: bool(left(values)) or bool(right(values))
        op = _BINARY[e.op]
        return lambda values: op(left(values), right(values))
    raise TypeError(f"not an expression node: {e!r}")


# A column-compiled expression maps a block of n valuations, given as one
# column per slot, to an iterable of the n values compile_expr gives for them.
ColumnCompiled = Callable[[Sequence[Sequence], int], Iterable]

_COLUMN_BINARY = {**_BINARY, "&&": operator.and_, "||": operator.or_}


def compile_column(e: Expr, slots: Mapping[str, int]) -> ColumnCompiled:
    """compile_expr over a block of valuations: each node becomes one lazy
    `map` over its operands' columns.

    The expression must be well typed (infer_type) and read only variables
    in `slots`: `&&`, `||` and `!` are applied without bool() coercion and
    without short-circuit, which gives compile_expr's values only for
    boolean operands.
    """
    if isinstance(e, (IntLit, BoolLit)):
        const = e.value
        return lambda columns, n: repeat(const, n)
    if isinstance(e, VarRef):
        slot = slots[e.name]
        return lambda columns, n: columns[slot]
    if isinstance(e, NotOp):
        inner = compile_column(e.operand, slots)
        return lambda columns, n: map(operator.not_, inner(columns, n))
    if isinstance(e, BinOp):
        left = compile_column(e.left, slots)
        right = compile_column(e.right, slots)
        op = _COLUMN_BINARY[e.op]
        return lambda columns, n: map(op, left(columns, n), right(columns, n))
    raise TypeError(f"not an expression node: {e!r}")


def compile_predicate(p: Expr, slots: Mapping[str, int]) -> Compiled:
    """compile_expr, raising ExpressionTypeError on a non-boolean value."""
    f = compile_expr(p, slots)

    def checked(values):
        value = f(values)
        if not isinstance(value, bool):
            raise ExpressionTypeError(f"predicate evaluated to non-boolean {value!r}")
        return value
    return checked


def compile_effects(spec: EnvSpec, effects: Iterable[Assignment], *,
                    wrap: bool = False) -> Callable[[tuple], tuple]:
    """A closure mapping a values tuple laid out by spec.slots to the values
    after the assignments. Every right-hand side reads the incoming values,
    then the writes happen in listed order. An out-of-domain result raises
    DomainViolationError, or with `wrap` (root-result hooks) an integer
    wraps into its domain."""
    staged = [(spec.slots[a.name], compile_expr(a.expr, spec.slots), spec.decl(a.name))
              for a in effects]

    def apply_all(values):
        new = [rhs(values) for _, rhs, _ in staged]
        out = list(values)
        for (slot, _, decl), value in zip(staged, new):
            out[slot] = domain_checked(decl, value, wrap)
        return tuple(out)
    return apply_all
