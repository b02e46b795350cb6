"""Parser and elaborator for the .bt model format.

The format mirrors the tree shape with nested braces and declares the
environment, leaf behaviors, invariants, and the root-result hook in
separate blocks:

    tree {
      root {
        sequence sequence_1 {
          condition condition_1;
          action action_1;
        }
      }
    }
    env { var distance_to_object: int in 0..10 = 10; }
    condition condition_1 { success_when: distance_to_object >= 5; }
    action action_1 {
      outcome SUCCESS when true { distance_to_object := distance_to_object - 1; }
    }
    on_root_result { }
    invariant safe { distance_to_object >= 3; }

Node ids are assigned breadth-first, left-to-right with root = 0; optional
`id = N` annotations are verified against that numbering, never trusted.
Line comments start with //.

Tree nesting, expression height and nesting of parentheses and unary
operators are limited (MAX_TREE_DEPTH, MAX_EXPR_DEPTH, MAX_EXPR_NESTING) so
that every recursive walk over a parsed model stays well inside Python's
recursion limit; deeper input is a ParseError.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import NamedTuple

from .core import (
    ModelError,
    NodeType,
    TickResult,
    TreeSpec,
    ValidationReport,
    validate_tree,
)
from .envmodel import (
    ActionBehavior,
    ActionOutcome,
    Assignment,
    BinOp,
    BoolLit,
    ConditionBehavior,
    EnvSpec,
    Expr,
    IntLit,
    LeafBehavior,
    NotOp,
    VarDecl,
    VarRef,
    check_outcome_exhaustiveness,
    expr_depth,
    infer_type,
)
from .semantics import Model


class ParseError(ModelError):
    def __init__(self, line: int, col: int, msg: str):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


class ElaborationError(ModelError):
    def __init__(self, msg: str, report: ValidationReport | None = None):
        super().__init__(msg)
        self.report = report


KEYWORDS = {
    "tree", "root", "sequence", "fallback", "condition", "action",
    "env", "var", "int", "bool", "in", "outcome", "when",
    "on_root_result", "invariant", "success_when",
    "SUCCESS", "RUNNING", "FAILURE", "true", "false",
}

NODE_KINDS = {
    "root": NodeType.ROOT,
    "sequence": NodeType.SEQUENCE,
    "fallback": NodeType.FALLBACK,
    "condition": NodeType.CONDITION,
    "action": NodeType.ACTION,
}

# The parser, evaluator and compiler recurse once per tree level or
# expression level. The parser takes three frames per parenthesis and two
# per `!` or unary `-`, so nesting has the lower limit.
MAX_TREE_DEPTH = 500
MAX_EXPR_DEPTH = 100
MAX_EXPR_NESTING = 50

# Binding strength of the binary operators, loosest first, and of `!`, which
# sits between && and the comparisons. The parser reads these, as does the
# test suite's renderer. A comparison or a `!` does not chain: an operator
# that follows one must bind more loosely.
_PREC = {"||": 1, "&&": 2, "<": 4, "<=": 4, ">": 4, ">=": 4, "==": 4, "!=": 4,
         "+": 5, "-": 5}
_NOT_PREC = 3
_CMP_PREC = 4


class Token(NamedTuple):
    kind: str  # ident | int | punct | eof
    text: str
    line: int
    col: int

    @property
    def span(self) -> str:
        return f"{self.line}:{self.col}"


# One token, after any blanks, per match. "\r\n", "\r" and "\n" each end a
# line. An identifier starts with a letter or "_" and goes on with letters,
# digits and "_" in str.isalnum's sense, which is what \w means; only ASCII
# digits form an int. [^\W\d] also admits a few non-letters such as "²" and
# "½", so _tokenize checks the first character of a group-6 match.
_TOKEN = re.compile(r"""[ \t]*(?:
    (\r\n?|\n)                                       # 1: a line end
  | (//[^\r\n]*)                                     # 2: a comment
  | ([0-9]+)                                         # 3: int
  | ([A-Za-z_]\w*)                                   # 4: ident
  | (:=|==|!=|<=|>=|&&|\|\||\.\.|[{}();:=<>+\-!,])   # 5: punct
  | ([^\W\d]\w*)                                     # 6: ident, non-ASCII start
  | ([^ \t])                                         # 7: any other character
)""", re.VERBOSE)
_KIND = (None, None, None, "int", "ident", "punct", "ident")


def _tokenize(text: str) -> list[Token]:
    """The tokens of `text`, ending with an eof token.

    Columns count characters from 1, a tab as one. A comment runs to the
    end of its line and does not advance the column, so an eof after a
    trailing comment sits at the comment's column; otherwise the eof sits
    one past the last character, trailing blanks included.
    """
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0  # the offset of the current line's first character
    match = None
    for match in _TOKEN.finditer(text):
        group = match.lastindex
        if group == 1:
            line += 1
            line_start = match.end()
            continue
        if group == 2:
            continue
        start = match.start(group)
        if group >= 6 and (group == 7 or not text[start].isalpha()):
            raise ParseError(line, start - line_start + 1,
                             f"unexpected character {text[start]!r}")
        append(Token(_KIND[group], match[group], line, start - line_start + 1))
    end = match.start(2) if match and match.lastindex == 2 else len(text)
    append(Token("eof", "", line, end - line_start + 1))
    return tokens


# --- syntax tree ------------------------------------------------------------

@dataclass
class NodeDecl:
    kind: NodeType
    name: str
    explicit_id: int | None
    children: list["NodeDecl"]
    span: str


@dataclass
class ParsedVar:
    decl: VarDecl
    span: str


@dataclass
class ConditionDecl:
    name: str
    success_when: Expr
    span: str


@dataclass
class ActionDecl:
    name: str
    outcomes: list[ActionOutcome]
    span: str


@dataclass
class ModelDocument:
    tree_root: NodeDecl
    variables: list[ParsedVar] = field(default_factory=list)
    conditions: list[ConditionDecl] = field(default_factory=list)
    actions: list[ActionDecl] = field(default_factory=list)
    hook: list[Assignment] = field(default_factory=list)
    invariants: list[tuple[str, Expr, str]] = field(default_factory=list)


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.expr_nesting = 0

    # token helpers

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, expected: str) -> ParseError:
        tok = self.peek()
        found = "end of input" if tok.kind == "eof" else repr(tok.text)
        return ParseError(tok.line, tok.col, f"expected {expected}, found {found}")

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == text or \
           tok.kind == "ident" and tok.text == text:
            return self.next()
        raise self.error(f"'{text}'")

    def expect_name(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise self.error("a name")
        return self.next()

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind in ("punct", "ident") and tok.text == text

    def next_int(self) -> int:
        """Consume an int token and return its value."""
        tok = self.next()
        try:
            return int(tok.text)
        except ValueError:  # more digits than int() converts
            raise ParseError(tok.line, tok.col,
                             f"integer literal of {len(tok.text)} digits is too long") from None

    def expect_int(self) -> int:
        neg = False
        if self.at("-"):
            self.next()
            neg = True
        if self.peek().kind != "int":
            raise self.error("an integer")
        value = self.next_int()
        return -value if neg else value

    # document

    def parse_document(self) -> ModelDocument:
        tree_root = None
        doc_parts = ModelDocument(tree_root=None)  # type: ignore[arg-type]
        declared_names: dict[str, str] = {}
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text == "tree":
                if tree_root is not None:
                    raise ParseError(tok.line, tok.col, "duplicate tree block")
                tree_root = self.parse_tree_block(declared_names)
            elif tok.text == "env":
                self.parse_env_block(doc_parts)
            elif tok.text == "condition":
                doc_parts.conditions.append(self.parse_condition_block())
            elif tok.text == "action":
                doc_parts.actions.append(self.parse_action_block())
            elif tok.text == "on_root_result":
                if doc_parts.hook:
                    raise ParseError(tok.line, tok.col, "duplicate on_root_result block")
                self.next()
                self.expect("{")
                doc_parts.hook = self.parse_assignments()
                self.expect("}")
            elif tok.text == "invariant":
                self.next()
                name = self.expect_name()
                if any(name.text == existing for existing, _, _ in doc_parts.invariants):
                    raise ParseError(name.line, name.col,
                                     f"duplicate invariant name {name.text!r}")
                self.expect("{")
                pred = self.parse_expr()
                self.expect(";")
                self.expect("}")
                doc_parts.invariants.append((name.text, pred, name.span))
            else:
                raise self.error("'tree', 'env', 'condition', 'action', "
                                 "'on_root_result' or 'invariant'")
        if tree_root is None:
            tok = self.peek()
            raise ParseError(tok.line, tok.col, "expected a tree block")
        doc_parts.tree_root = tree_root
        return doc_parts

    # tree topology

    def parse_tree_block(self, declared: dict[str, str]) -> NodeDecl:
        self.expect("tree")
        self.expect("{")
        root_tok = self.expect("root")
        declared["root"] = root_tok.span
        explicit_id = self.parse_id_annotation()
        self.expect("{")
        children = []
        while not self.at("}"):
            children.append(self.parse_node_decl(declared, 1))
        self.expect("}")
        self.expect("}")
        return NodeDecl(NodeType.ROOT, "root", explicit_id, children, root_tok.span)

    def parse_id_annotation(self) -> int | None:
        if self.peek().kind == "ident" and self.peek().text == "id":
            self.next()
            self.expect("=")
            return self.expect_int()
        return None

    def parse_node_decl(self, declared: dict[str, str], depth: int) -> NodeDecl:
        tok = self.peek()
        if depth > MAX_TREE_DEPTH:
            raise ParseError(tok.line, tok.col,
                             f"tree nested deeper than {MAX_TREE_DEPTH} levels")
        if tok.kind != "ident" or tok.text not in NODE_KINDS:
            if tok.kind == "ident" and tok.text not in KEYWORDS:
                raise ParseError(tok.line, tok.col, f"unknown node kind {tok.text!r}")
            raise self.error("a node kind (sequence, fallback, condition, action)")
        self.next()
        name = self.expect_name()
        if name.text in declared:
            raise ParseError(name.line, name.col,
                             f"duplicate node name {name.text!r} "
                             f"(first declared at {declared[name.text]})")
        declared[name.text] = name.span
        explicit_id = self.parse_id_annotation()
        children: list[NodeDecl] = []
        if self.at("{"):
            self.next()
            while not self.at("}"):
                children.append(self.parse_node_decl(declared, depth + 1))
            self.expect("}")
        else:
            self.expect(";")
        return NodeDecl(NODE_KINDS[tok.text], name.text, explicit_id, children, name.span)

    # environment

    def parse_env_block(self, doc: ModelDocument) -> None:
        self.expect("env")
        self.expect("{")
        while not self.at("}"):
            self.expect("var")
            name = self.expect_name()
            self.expect(":")
            if self.at("bool"):
                self.next()
                lo = hi = None
                self.expect("=")
                initial: int | bool = self.parse_bool_literal()
            elif self.at("int"):
                self.next()
                self.expect("in")
                lo = self.expect_int()
                self.expect("..")
                hi = self.expect_int()
                self.expect("=")
                initial = self.expect_int()
            else:
                raise self.error("'int' or 'bool'")
            self.expect(";")
            doc.variables.append(
                ParsedVar(VarDecl(name.text, lo, hi, initial), name.span))
        self.expect("}")

    def parse_bool_literal(self) -> bool:
        if self.at("true"):
            self.next()
            return True
        if self.at("false"):
            self.next()
            return False
        raise self.error("'true' or 'false'")

    # behaviors

    def parse_condition_block(self) -> ConditionDecl:
        self.expect("condition")
        name = self.expect_name()
        self.expect("{")
        self.expect("success_when")
        self.expect(":")
        pred = self.parse_expr()
        self.expect(";")
        self.expect("}")
        return ConditionDecl(name.text, pred, name.span)

    def parse_action_block(self) -> ActionDecl:
        self.expect("action")
        name = self.expect_name()
        self.expect("{")
        outcomes = []
        while not self.at("}"):
            self.expect("outcome")
            tok = self.peek()
            if tok.text not in ("SUCCESS", "RUNNING", "FAILURE"):
                raise self.error("'SUCCESS', 'RUNNING' or 'FAILURE'")
            self.next()
            result = TickResult(tok.text)
            self.expect("when")
            guard = self.parse_expr()
            effects: list[Assignment] = []
            if self.at("{"):
                self.next()
                effects = self.parse_assignments()
                self.expect("}")
            else:
                self.expect(";")
            outcomes.append(ActionOutcome(guard, result, tuple(effects)))
        self.expect("}")
        if not outcomes:
            raise ParseError(name.line, name.col,
                             f"action {name.text!r} declares no outcomes")
        return ActionDecl(name.text, outcomes, name.span)

    def parse_assignments(self) -> list[Assignment]:
        out, assigned = [], {}
        while not self.at("}"):
            name = self.expect_name()
            if name.text in assigned:
                raise ParseError(name.line, name.col,
                                 f"duplicate assignment to {name.text!r} in one block "
                                 f"(first assigned at {assigned[name.text]})")
            assigned[name.text] = name.span
            self.expect(":=")
            expr = self.parse_expr()
            self.expect(";")
            out.append(Assignment(name.text, expr, name.span))
        return out

    # expressions: binary operators by _PREC, `!` at _NOT_PREC, atoms

    def parse_expr(self) -> Expr:
        tok = self.peek()
        expr = self.parse_binary(0)
        if self.expr_nesting == 0 and expr_depth(expr) > MAX_EXPR_DEPTH:
            raise ParseError(tok.line, tok.col,
                             f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
        return expr

    def nested(self, parse, *args):
        """parse(*args) one level deeper inside an expression: `(`, `!` or
        unary `-`."""
        tok = self.peek()
        if self.expr_nesting >= MAX_EXPR_NESTING:
            raise ParseError(tok.line, tok.col,
                             f"expression nested deeper than {MAX_EXPR_NESTING} levels")
        self.expr_nesting += 1
        try:
            return parse(*args)
        finally:
            self.expr_nesting -= 1

    def parse_binary(self, min_prec: int) -> Expr:
        """An expression whose operators outside parentheses bind at least as
        tightly as min_prec, by precedence climbing: the loop takes a chain of
        operators, and each right operand is parsed one level above its
        operator."""
        if min_prec <= _NOT_PREC and self.at("!"):
            tok = self.next()
            left = NotOp(self.nested(self.parse_binary, _NOT_PREC), tok.span)
            below = _NOT_PREC
        else:
            left = self.parse_atom()
            below = math.inf
        while True:
            tok = self.peek()
            prec = _PREC.get(tok.text)
            # An operator at `below` or tighter is a second comparison, or one
            # that the last operand stopped at: neither may continue here.
            if prec is None or not min_prec <= prec < below:
                return left
            self.next()
            left = BinOp(tok.text, left, self.parse_binary(prec + 1), tok.span)
            below = prec if prec == _CMP_PREC else prec + 1

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            return IntLit(self.next_int(), tok.span)
        if tok.text == "-":
            self.next()
            operand = self.nested(self.parse_atom)
            if isinstance(operand, IntLit):
                return IntLit(-operand.value, tok.span)
            return BinOp("-", IntLit(0, tok.span), operand, tok.span)
        if tok.text == "true":
            self.next()
            return BoolLit(True, tok.span)
        if tok.text == "false":
            self.next()
            return BoolLit(False, tok.span)
        if tok.text == "(":
            self.next()
            inner = self.nested(self.parse_binary, 0)
            self.expect(")")
            return inner
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.next()
            return VarRef(tok.text, tok.span)
        raise self.error("an expression")


def parse(text: str) -> ModelDocument:
    """Parse .bt source into a ModelDocument; diagnostics carry line:col."""
    return _Parser(text).parse_document()


# --- elaboration ------------------------------------------------------------

def build_tree(doc: ModelDocument) -> TreeSpec:
    """Assign breadth-first ids and build the TreeSpec (no validation)."""
    n_type: dict[str, NodeType] = {}
    parent: dict[str, str] = {}
    order = [doc.tree_root]
    for decl in order:  # breadth-first: `order` grows as it is read
        n_type[decl.name] = decl.kind
        for child in decl.children:
            parent[child.name] = decl.name
            order.append(child)
    n_id = {decl.name: i for i, decl in enumerate(order)}
    for decl in order:
        if decl.explicit_id is not None and decl.explicit_id != n_id[decl.name]:
            raise ElaborationError(
                f"{decl.span}: node {decl.name!r} declares id {decl.explicit_id}, "
                f"breadth-first numbering assigns {n_id[decl.name]}")
    return TreeSpec.build(n_type, n_id, parent)


def _build_env(doc: ModelDocument) -> EnvSpec:
    seen: dict[str, str] = {}
    for pv in doc.variables:
        if pv.decl.name in seen:
            raise ElaborationError(
                f"{pv.span}: duplicate variable {pv.decl.name!r} "
                f"(first declared at {seen[pv.decl.name]})")
        seen[pv.decl.name] = pv.span
        d = pv.decl
        if not d.is_bool:
            if d.lo > d.hi:
                raise ElaborationError(f"{pv.span}: empty domain {d.lo}..{d.hi}")
            if not d.contains(d.initial):
                raise ElaborationError(
                    f"{pv.span}: initial value {d.initial} outside {d.lo}..{d.hi}")
    return EnvSpec(
        variables=tuple(pv.decl for pv in doc.variables),
        invariants=tuple((name, pred) for name, pred, _ in doc.invariants),
        root_result_hook=tuple(doc.hook),
    )


def _check_assignment(env: EnvSpec, a: Assignment) -> None:
    decl = env.decl(a.name) if a.name in env.slots else None
    if decl is None:
        raise ElaborationError(f"{a.span}: assignment to undeclared variable {a.name!r}")
    expr_type = infer_type(a.expr, env)
    var_type = "bool" if decl.is_bool else "int"
    if expr_type != var_type:
        raise ElaborationError(
            f"{a.span}: {a.name} is {var_type} but the assigned expression is {expr_type}")


def elaborate(doc: ModelDocument) -> Model:
    """Type-check and cross-link a parsed document into a runnable Model.

    Fails on any error-level tree violation, on type errors in expressions,
    on missing or duplicated leaf behaviors, and on actions whose outcome
    guards are not exhaustive over the declared domains. Exhaustiveness
    checks too large to run are listed in the model's `warnings`.
    """
    tree = build_tree(doc)
    report = validate_tree(tree)
    if not report.ok:
        lines = "; ".join(f"{tag}: {detail}" for tag, detail in report.violations)
        raise ElaborationError(f"tree is not well formed: {lines}", report)
    return _elaborate_tree(doc, tree)


def _elaborate_tree(doc: ModelDocument, tree: TreeSpec) -> Model:
    """elaborate's checks after the tree's: `tree` is build_tree(doc) and
    has passed validate_tree."""
    env = _build_env(doc)

    behaviors: dict[str, LeafBehavior] = {}
    for cond in doc.conditions:
        if tree.n_type.get(cond.name) is not NodeType.CONDITION:
            raise ElaborationError(
                f"{cond.span}: condition block for {cond.name!r}, which is not a "
                "condition node in the tree")
        if cond.name in behaviors:
            raise ElaborationError(f"{cond.span}: duplicate behavior for {cond.name!r}")
        if infer_type(cond.success_when, env) != "bool":
            raise ElaborationError(
                f"{cond.span}: success_when of {cond.name!r} is not boolean")
        behaviors[cond.name] = ConditionBehavior(cond.success_when)
    for act in doc.actions:
        if tree.n_type.get(act.name) is not NodeType.ACTION:
            raise ElaborationError(
                f"{act.span}: action block for {act.name!r}, which is not an "
                "action node in the tree")
        if act.name in behaviors:
            raise ElaborationError(f"{act.span}: duplicate behavior for {act.name!r}")
        for outcome in act.outcomes:
            if infer_type(outcome.guard, env) != "bool":
                raise ElaborationError(
                    f"{act.span}: an outcome guard of {act.name!r} is not boolean")
            for assignment in outcome.effects:
                _check_assignment(env, assignment)
        behaviors[act.name] = ActionBehavior(tuple(act.outcomes))

    for node in tree.node_order:
        ntype = tree.n_type[node]
        if ntype in (NodeType.CONDITION, NodeType.ACTION) and node not in behaviors:
            raise ElaborationError(
                f"{ntype.value.lower()} node {node!r} has no behavior block")

    for assignment in env.root_result_hook:
        _check_assignment(env, assignment)
    for name, pred, span in doc.invariants:
        if infer_type(pred, env) != "bool":
            raise ElaborationError(f"{span}: invariant {name!r} is not boolean")

    warnings = []
    for node, behavior in behaviors.items():
        if isinstance(behavior, ActionBehavior):
            skipped = check_outcome_exhaustiveness(env, node, behavior)
            if skipped:
                warnings.append(skipped)

    return Model(tree=tree, env=env, behaviors=behaviors, warnings=tuple(warnings))


def read_source(path) -> tuple[str, str]:
    """A model file's text, decoded from UTF-8 with its line endings kept,
    and the sha256 of its bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data.decode("utf-8"), hashlib.sha256(data).hexdigest()


def load_model(path) -> Model:
    """Parse and elaborate a model file; the Model remembers the source hash."""
    text, sha256 = read_source(path)
    model = elaborate(parse(text))
    return dataclasses.replace(model, source_sha256=sha256)


def bundled_model_path(name: str):
    """Filesystem path of a model shipped with the package (e.g. robot_wall.bt)."""
    return resources.files("btv.models").joinpath(name)
