"""Seeded inputs for the benchmark, with plain-Python expected results.

Everything the program under test receives is built here from ``--seed``;
every expected result is computed here in Python, never by running an
engine.  Three input families:

* :func:`mixed_program` -- an ML module and an L3 module of ``functions``
  functions each.  ML function ``p{i}`` calls L3 function ``c{i}`` through
  an import, so linking joins the two languages into one Wasm module.
* :func:`session_mix` -- Fig. 9 counter sessions (init, ticks, total).
* :func:`request_mix` -- stateless ``p{i}``/``c{i}`` requests over a
  :func:`mixed_program`, about 5% of them with a step budget too small to
  finish, which must trap as ``step_budget``.

Integers in the generated programs stay non-negative and below ``2**31``,
so the i32 results equal the Python values with no wrapping.
"""

from __future__ import annotations

import dataclasses
import random

ML_NAME = "app"
L3_NAME = "lib"

#: Budgets far below the ~90 steps any generated export takes.
TRAP_BUDGETS = (1, 2, 3, 5, 8, 13)
#: The share of requests that carry one of them.
TRAP_SHARE = 0.05


@dataclasses.dataclass(frozen=True)
class FunctionSpec:
    """The seeded shape of one ``p{i}``/``c{i}`` pair."""

    index: int
    l3_template: int  # 0: one cell, 1: two cells
    ml_template: int  # 0, 1 or 2, see :func:`_ml_body`
    a: int
    b: int
    k: int
    m: int
    t: int


def program_specs(seed: int, functions: int) -> list[FunctionSpec]:
    rng = random.Random(f"program:{seed}")
    # Distinct ``b`` constants keep every generated function structurally
    # unique, so a cold compile reuses no unit from another function.
    bs = rng.sample(range(1000), functions)
    # Each seed uses every template equally often, in its own order, so the
    # programs of all seeds take about the same work to compile and run.
    l3_templates = _balanced(rng, 2, functions)
    ml_templates = _balanced(rng, 3, functions)
    return [
        FunctionSpec(
            index=i,
            l3_template=l3_templates[i],
            ml_template=ml_templates[i],
            a=rng.randint(1, 9),
            b=bs[i],
            k=rng.randint(0, 50),
            m=rng.randint(1, 9),
            t=rng.randint(100, 2000),
        )
        for i in range(functions)
    ]


def _balanced(rng: random.Random, kinds: int, count: int) -> list[int]:
    values = [i % kinds for i in range(count)]
    rng.shuffle(values)
    return values


# -- plain-Python oracle -------------------------------------------------------


def expect_c(spec: FunctionSpec, x: int) -> int:
    if spec.l3_template == 0:
        return x + x * spec.a + spec.b
    return x * spec.a + spec.b


def expect_p(spec: FunctionSpec, x: int) -> int:
    if spec.ml_template == 0:
        y = expect_c(spec, x + spec.k)
        return y * 2 if y < spec.t else y - spec.t
    if spec.ml_template == 1:
        z = expect_c(spec, x) * spec.m + spec.k
        return z if z < spec.t else z - spec.t
    if x < spec.t:
        return expect_c(spec, x + spec.k)
    return expect_c(spec, x - spec.t) * 2


# -- source builders -----------------------------------------------------------


def _l3_function(spec: FunctionSpec):
    from repro.l3 import L3Function, LBinOp, LFree, LInt, LIntLit, LLet, LLetPair, LNew, LSwap, LVar

    if spec.l3_template == 0:
        # o = new x; (old, o) = swap o (x*a + b); old + free o
        body = LLet("o", LNew(LVar("x")), LLetPair(
            "old", "o2",
            LSwap(LVar("o"), LBinOp("+", LBinOp("*", LVar("x"), LIntLit(spec.a)), LIntLit(spec.b))),
            LBinOp("+", LVar("old"), LFree(LVar("o2"))),
        ))
    else:
        # o = new x; q = new a; (u, o) = swap o b; u * free q + free o
        body = LLet("o", LNew(LVar("x")), LLet("q", LNew(LIntLit(spec.a)), LLetPair(
            "u", "o2", LSwap(LVar("o"), LIntLit(spec.b)),
            LBinOp("+", LBinOp("*", LVar("u"), LFree(LVar("q"))), LFree(LVar("o2"))),
        )))
    return L3Function(f"c{spec.index}", "x", LInt(), LInt(), body)


def _ml_body(spec: FunctionSpec):
    from repro.ml import App, BinOp, If, IntLit, Let, Var

    call = lambda arg: App(Var(f"c{spec.index}"), arg)  # noqa: E731
    if spec.ml_template == 0:
        return Let("y", call(BinOp("+", Var("x"), IntLit(spec.k))),
                   If(BinOp("<", Var("y"), IntLit(spec.t)),
                      BinOp("*", Var("y"), IntLit(2)),
                      BinOp("-", Var("y"), IntLit(spec.t))))
    if spec.ml_template == 1:
        return Let("z", BinOp("+", BinOp("*", call(Var("x")), IntLit(spec.m)), IntLit(spec.k)),
                   If(BinOp("<", Var("z"), IntLit(spec.t)),
                      Var("z"),
                      BinOp("-", Var("z"), IntLit(spec.t))))
    return If(BinOp("<", Var("x"), IntLit(spec.t)),
              call(BinOp("+", Var("x"), IntLit(spec.k))),
              BinOp("*", call(BinOp("-", Var("x"), IntLit(spec.t))), IntLit(2)))


def _ml_function(spec: FunctionSpec):
    from repro.ml import MLFunction, TInt

    return MLFunction(f"p{spec.index}", "x", TInt(), TInt(), _ml_body(spec))


def build_sources(specs: list[FunctionSpec]) -> dict:
    """Fresh ``{name: source}`` objects for ``repro.api.compile``."""

    from repro.l3 import l3_module
    from repro.ml import MLImport, TInt, ml_module

    lib = l3_module(L3_NAME, functions=[_l3_function(spec) for spec in specs])
    app = ml_module(
        ML_NAME,
        imports=[MLImport(L3_NAME, f"c{spec.index}", TInt(), TInt()) for spec in specs],
        functions=[_ml_function(spec) for spec in specs],
    )
    return {ML_NAME: app, L3_NAME: lib}


def edited_sources(sources: dict, spec: FunctionSpec) -> dict:
    """``sources`` with ML function ``p{spec.index}`` rebuilt from ``spec``.

    Every other source object is reused as is, as an editor would.
    """

    app = sources[ML_NAME]
    functions = list(app.functions)
    functions[spec.index] = _ml_function(spec)
    return {**sources, ML_NAME: dataclasses.replace(app, functions=tuple(functions))}


def edit_plan(seed: int, specs: list[FunctionSpec], count: int) -> list[FunctionSpec]:
    """``count`` one-function edits: each moves one ML function's ``k`` to a
    value no earlier compile has seen, so exactly that function misses."""

    rng = random.Random(f"edit:{seed}")
    return [
        dataclasses.replace(specs[rng.randrange(len(specs))], k=100 + step)
        for step in range(count)
    ]


def check_inputs(seed: int, specs: list[FunctionSpec], count: int) -> list[tuple]:
    """``count`` seeded ``(export, args, expected)`` output checks."""

    rng = random.Random(f"check:{seed}")
    checks = []
    for _ in range(count):
        spec = specs[rng.randrange(len(specs))]
        x = rng.randrange(2500)
        if rng.random() < 0.5:
            checks.append((f"{ML_NAME}.p{spec.index}", (x,), expect_p(spec, x)))
        else:
            checks.append((f"{L3_NAME}.c{spec.index}", (x,), expect_c(spec, x)))
    return checks


# -- serving mixes ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SessionCase:
    start: int
    ticks: int
    total: int  # the expected ``client_total``


def counter_increment(seed: int) -> int:
    return random.Random(f"counter:{seed}").randint(1, 9)


def session_mix(seed: int, count: int) -> list[SessionCase]:
    """``count`` counter sessions with 8 to 56 ticks each."""

    increment = counter_increment(seed)
    rng = random.Random(f"sessions:{seed}")
    cases = []
    for _ in range(count):
        start = rng.randrange(1000)
        ticks = rng.randint(8, 56)
        cases.append(SessionCase(start, ticks, start + ticks * increment))
    return cases


@dataclasses.dataclass(frozen=True)
class RequestCase:
    export: str
    x: int
    max_steps: object  # ``None`` or a budget that must trap
    expected: object  # the result, or ``None`` when it must trap


def request_mix(seed: int, specs: list[FunctionSpec], count: int) -> list[RequestCase]:
    rng = random.Random(f"requests:{seed}")
    cases = []
    for _ in range(count):
        spec = specs[rng.randrange(len(specs))]
        x = rng.randrange(2500)
        if rng.random() < 0.5:
            export, expected = f"{ML_NAME}.p{spec.index}", expect_p(spec, x)
        else:
            export, expected = f"{L3_NAME}.c{spec.index}", expect_c(spec, x)
        if rng.random() < TRAP_SHARE:
            cases.append(RequestCase(export, x, rng.choice(TRAP_BUDGETS), None))
        else:
            cases.append(RequestCase(export, x, None, expected))
    return cases
