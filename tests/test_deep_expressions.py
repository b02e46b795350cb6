"""The deepest expressions the parser accepts compile, evaluate and check.

Generated source nests one bracket per expression level, and CPython's
parser limits how deeply brackets nest, so these run on every supported
Python. They need no pytest, so they also run as a plain script:

    PYTHONPATH=src python tests/test_deep_expressions.py
"""

from __future__ import annotations

import sys

from btv.checker import Status, explore
from btv.envmodel import compile_predicate
from btv.frontend import ParseError, elaborate, parse

X_MAX = 120


def model_text(success_when: str) -> str:
    return f"""
tree {{ root {{ sequence s {{ condition c; action a; }} }} }}
env {{ var x: int in 0..{X_MAX} = 0; var b: bool = true; }}
condition c {{ success_when: {success_when}; }}
action a {{
  outcome SUCCESS when x < {X_MAX} {{ x := x + 1; }}
  outcome FAILURE when x >= {X_MAX};
}}
invariant bounded {{ x <= {X_MAX}; }}
"""


def deepest(text) -> int:
    """The largest n for which the parser accepts text(n)."""
    n = 1
    while True:
        try:
            parse(model_text(text(n + 1)))
        except ParseError:
            return n
        n += 1


def check_deepest(text, expected) -> None:
    """Compile the deepest text(n), compare its value with expected(n, x)
    for every x, and search its model, which compiles it and its negation
    as the condition's guards."""
    n = deepest(text)
    model = elaborate(parse(model_text(text(n))))
    holds = compile_predicate(model.behaviors["c"].success_when, model.env)
    for x in range(X_MAX + 1):
        got = holds((x, True))
        assert got is expected(n, x), (n, x, got)
    assert explore(model).status is Status.HOLDS


def test_longest_and_chain():
    check_deepest(lambda n: " && ".join(f"x != {k}" for k in range(n)),
                  lambda n, x: x >= n)


def test_negated_longest_and_chain():
    check_deepest(lambda n: "!(" + " && ".join(f"x != {k}" for k in range(n)) + ")",
                  lambda n, x: x < n)


def test_most_nested_nots():
    check_deepest(lambda n: "!" * n + "x >= 60", lambda n, x: (x >= 60) == (n % 2 == 0))


def test_most_nested_parentheses():
    check_deepest(lambda n: "1 + (" * n + "x" + ")" * n + " >= 70",
                  lambda n, x: x + n >= 70)


def test_most_nested_right_and():
    check_deepest(lambda n: "".join(f"x != {k} && (" for k in range(n)) + "b" + ")" * n,
                  lambda n, x: x > n - 1)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("passed", name)
    print(f"Python {sys.version.split()[0]}: all passed")
