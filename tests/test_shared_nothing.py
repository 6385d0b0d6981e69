"""The engine, the oracle and the batched evaluation loop against
``shared_nothing``, a reference that shares no code with them.

Four mutants of the loop that both semantics share are passed in by
argument, with no source edited: a memo whose keys ignore the right
operand, one memo kept across all frames, a program whose ``&`` nodes
that read one atom's node are ``|`` nodes, and batch columns built from
the batch's valuations rotated by one row.  Under each, the comparing
rule table of ``harness`` notes no disagreement, because the engine and
the oracle still agree on every application they are given; the
reference sees the wrong columns.
"""

import ast
from functools import reduce
from pathlib import Path

import pytest

import ictl.gen as gen
import ictl.harness as harness
import shared_nothing
from ictl.checker import denote
from ictl.gen import (
    GenParams,
    atom_names,
    enumerate_formulas,
    enumerate_models,
    random_formula,
    random_model,
)
from ictl.oracle import oracle_denotation
from ictl.syntax import (
    _AND,
    _ATOM,
    _OR,
    MAX_BATCH,
    And,
    Program,
    compile_formulas,
    parse_formula,
    run_frame,
)
from helpers import seeded_rng
from shared_nothing import denotations

BATTERY = enumerate_formulas(2, ["p", "q"])


def names_of(m, mask):
    return {w for i, w in enumerate(m.worlds) if mask >> i & 1}


def assert_agree(m, f):
    """``denote`` and ``oracle_denotation`` equal the reference on every
    subformula of ``f``."""
    want = denotations(m, [f])
    for got in (denote(m, f), oracle_denotation(m, f)):
        assert {g: names_of(m, mask) for g, mask in got.items()} == {g: want[g] for g in got}


def test_imports_only_the_ast_and_the_document():
    tree = ast.parse(Path(shared_nothing.__file__).read_text())
    imported = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("ictl")
        for alias in node.names
    }
    syntax = {(m, n) for m, n in imported if m == "ictl.syntax"}
    assert imported - syntax == {("ictl.model", "model_to_document")}
    assert all(isinstance(getattr(shared_nothing, n), type) for _, n in syntax)  # node classes
    assert not any(isinstance(node, ast.Import) for node in ast.walk(tree))


def test_every_model_up_to_two_worlds():
    whole = reduce(And, BATTERY)  # one formula whose subformulas hold the battery
    models = [m for n in (1, 2) for m in enumerate_models(n, 2)]
    assert len(models) == 284
    for m in models:
        assert_agree(m, whole)


def test_random_models():
    rng = seeded_rng(12)
    for k in range(100):
        m = random_model(GenParams(n_worlds=1 + k % 5, n_atoms=2, seed=rng.getrandbits(32)))
        for _ in range(3):
            assert_agree(m, random_formula(rng, 4, atom_names(2)))


class IgnoreRightMemo(dict):
    """A memo for ``run_frame`` on an ``n``-world frame whose keys drop the
    right operand, which ``run_frame`` packs into their low ``n`` bits."""

    def __init__(self, n):
        super().__init__()
        self.right = (1 << n) - 1

    def get(self, key, default=None):
        return super().get(key & ~self.right, default)

    def __setitem__(self, key, value):
        super().__setitem__(key & ~self.right, value)


def memo_for(kind):
    """A function from a frame to its memo: a fresh one, or a mutant."""
    shared = {}
    return {
        "one per frame": lambda frame: {},
        "keys ignore the right operand": lambda frame: IgnoreRightMemo(frame.n),
        "one for all frames": lambda frame: shared,
    }[kind]


def and_as_or(program, slot):
    """``program`` with every ``&`` node that reads the node of atom slot
    ``slot`` turned into an ``|`` node."""
    atom = program.nodes.index((_ATOM, slot, -1))
    nodes = [(_OR if kind == _AND and atom in (l, r) else kind, l, r) for kind, l, r in program.nodes]
    return Program(program.formulas, nodes, program.atom_slots)


def count_wrong(sweep, names, program, memo="one per frame", ran=None, rotate=0):
    """Run ``program`` over the batches of ``sweep`` with the comparing
    rule table, one memo per frame from ``memo_for(memo)``, as
    ``find_countermodel`` does; the number of models, and of models where
    some column differs from the reference.

    Two loop mutants come in by argument: ``ran``, a program run in
    ``program``'s place, and ``rotate``, the rows by which each batch's
    columns are rotated.  The reference always evaluates
    ``program.formulas`` on each row's own valuation."""
    new_memo = memo_for(memo)
    noted = {}
    ops = harness._comparing_operators(noted)
    wrong = models = 0
    last = None
    for _, frame, batch in sweep:
        if not batch:  # the end marker
            break
        if frame is not last:
            last, frame_memo = frame, new_memo(frame)
        rows = batch[rotate:] + batch[:rotate]
        columns = dict(zip(names, zip(*rows)))
        cols = run_frame(ran or program, frame, columns, len(batch), ops, frame_memo)
        for i, assignment in enumerate(batch):
            m = frame.with_valuation(dict(zip(names, assignment)))
            want = denotations(m, program.formulas)
            wrong += any(names_of(m, col[i]) != want[f] for f, col in zip(program.formulas, cols))
            models += 1
    assert noted == {}  # engine and oracle agree on every application made
    return models, wrong


@pytest.mark.parametrize(
    "memo", ["one per frame", "keys ignore the right operand", "one for all frames"]
)
def test_sweep_columns(memo):
    """The ``run_frame`` columns of every batch of the labelled sweep of
    up to two worlds against the reference; each mutant memo is killed."""
    sweep = gen._sweep(range(1, 3), 2, 0, 0)
    models, wrong = count_wrong(sweep, atom_names(2), compile_formulas(BATTERY), memo)
    assert models == 284
    assert (wrong > 0) == (memo != "one per frame")


def test_sweep_columns_height_three():
    """The ``run_frame`` columns of every batch of the labelled sweep of
    up to two worlds against the reference, on all 8,162 formulas of
    height at most three over ``p`` and ``q``."""
    sweep = gen._sweep(range(1, 3), 2, 0, 0)
    battery = compile_formulas(enumerate_formulas(3, ["p", "q"]))
    assert count_wrong(sweep, atom_names(2), battery, "one per frame") == (284, 0)


@pytest.mark.parametrize("memo", ["one per frame", "keys ignore the right operand"])
def test_split_frame_columns(memo):
    """The one-world frame with 14 atoms, whose 2**14 valuations the sweep
    hands over in chunks of ``MAX_BATCH`` that share the frame's memo,
    against the reference on every model; the mutant memo is killed."""
    sweep = list(gen._sweep(range(1, 2), 14, 0, 0))
    assert [len(batch) for _, _, batch in sweep] == [MAX_BATCH] * (2**14 // MAX_BATCH) + [0]
    battery = [parse_formula(text) for text in ("a3 -> a12", "E[a1 U a13]", "AX a7 | ~a0")]
    names = [f"a{i}" for i in range(14)]
    models, wrong = count_wrong(sweep, names, compile_formulas(battery), memo)
    assert models == 2**14
    assert (wrong > 0) == (memo != "one per frame")


# the arguments of count_wrong that make each loop mutant, given the program
LOOP_MUTANTS = {
    "& read as | for p": lambda program: {"ran": and_as_or(program, 0)},
    "rows off by one": lambda program: {"rotate": 1},
}


@pytest.mark.parametrize("mutant", LOOP_MUTANTS)
def test_loop_mutants(mutant):
    """Each loop mutant, over the labelled sweep of up to two worlds, is
    killed by the reference."""
    sweep = gen._sweep(range(1, 3), 2, 0, 0)
    program = compile_formulas(BATTERY)
    models, wrong = count_wrong(sweep, atom_names(2), program, **LOOP_MUTANTS[mutant](program))
    assert models == 284
    assert wrong > 0
