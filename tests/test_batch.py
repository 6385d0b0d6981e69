"""The frame batch path against per-model reference loops.

``syntax.run_frame`` evaluates all valuations of a frame in one pass, and
``find_countermodel``, ``enumerate_models`` and ``scan_models`` are built
on it.  Each test here recomputes the same result one model at a time,
with a scalar node loop written out below, and asks for identical output.
"""

from itertools import product

import pytest

import ictl.checker as checker
import ictl.gen as gen
import ictl.harness as harness
import ictl.oracle as oracle
from ictl.gen import (
    atom_names,
    enumerate_formulas,
    enumerate_frames,
    enumerate_models,
    find_countermodel,
    model_stream,
    upward_closed_masks,
)
from ictl.harness import scan_models
from ictl.model import BirelationalModel, pre_forall
from ictl.syntax import (
    _AND,
    _ATOM,
    _IMP,
    _OR,
    MAX_BATCH,
    compile_formulas,
    parse_formula,
    run,
    run_frame,
)

# the formulas of the benchmark's prove workload: four laws that hold on
# every model with at most three worlds, and four refutable converses
PROVE_FORMULAS = [
    "(E[p U q] -> q | (p & EX E[p U q])) & ((q | (p & EX E[p U q])) -> E[p U q])",
    "(E[p R q] -> q & (p | EX E[p R q])) & ((q & (p | EX E[p R q])) -> E[p R q])",
    "q | (p & AX A[p U q]) -> A[p U q]",
    "q & (p | AX A[p R q]) -> A[p R q]",
    "A[p U q] -> q | (p & AX A[p U q])",
    "A[q R p] -> p & (q | AX A[q U p])",
    "~AX~p -> EX p",
    "~AX~q -> EX q",
]


def scalar_run(program, m, ops, memo):
    """One model, one node at a time, memoized under ``(kind, a, b)``."""
    vals = []
    for kind, l, r in program.nodes:
        if kind >= _IMP:
            key = (kind, vals[l], vals[r] if r >= 0 else None)
            if key not in memo:
                memo[key] = ops[kind](m, vals[l]) if r < 0 else ops[kind](m, vals[l], vals[r])
            vals.append(memo[key])
        elif kind == _AND:
            vals.append(vals[l] & vals[r])
        elif kind == _OR:
            vals.append(vals[l] | vals[r])
        elif kind == _ATOM:
            vals.append(m.atom_mask(program.atom_slots[l]))
        else:
            vals.append(0)
    return vals


def stub_operators():
    """Rules that are arbitrary functions of the kind and the child masks."""

    def rule(kind):
        return lambda m, a, b=0: (a * 5 + b * 3 + kind) % (m.full + 1)

    return (None,) * _IMP + tuple(rule(k) for k in range(_IMP, len(checker.operators())))


TABLES = {"engine": checker.operators, "oracle": oracle.operators, "stub": stub_operators}


@pytest.mark.parametrize("table", TABLES)
def test_run_frame_columns_equal_per_model_runs(table):
    program = compile_formulas([*enumerate_formulas(2, ["p", "q"]), parse_formula("AX false | p")])
    ops = TABLES[table]()
    names = atom_names(2)
    frames = 0
    for _, frame, batch in gen._sweep(range(1, 4), 2, 0, 0):
        if not batch:  # the end marker
            break
        frames += 1
        columns = dict(zip(names, zip(*batch)))
        cols = run_frame(program, frame, columns, len(batch), ops, {})
        assert all(len(col) == len(batch) for col in cols)
        memo = {}
        for i, assignment in enumerate(batch):
            m = frame.with_valuation(dict(zip(names, assignment)))
            want = scalar_run(program, m, ops, memo)
            assert [col[i] for col in cols] == want
    assert frames == 1 + 28 + 3413


def reference_search(f, max_worlds=3, atoms=2, budget=0, seed=0):
    """``find_countermodel``'s answer, one model of the stream at a time."""
    program = compile_formulas([f])
    place = gen._search_atoms(program.atom_slots, atoms)
    generated = atom_names(len(place))
    slots = {a: generated[j] for a, j in place.items()}  # each atom's slot name
    ops = checker.operators()
    frame = None
    checked = 0
    for m in model_stream(range(1, max_worlds + 1), len(slots), budget, seed):
        checked += 1
        if (m.up, m.succ) != frame:
            frame, memo = (m.up, m.succ), {}
        renamed = m.with_valuation({a: m.val[s] for a, s in slots.items()})
        top = scalar_run(program, renamed, ops, memo)[-1]
        if top != m.full:
            failing = m.full & ~top
            world = m.worlds[(failing & -failing).bit_length() - 1]
            return "countermodel", checked, world, (m.up, m.succ, renamed.val)
    return ("exhausted" if budget <= 0 else "budget_exceeded"), checked, None, None


def search(f, **bounds):
    result = find_countermodel(f, **bounds)
    model = None if result.model is None else (result.model.up, result.model.succ, result.model.val)
    return result.outcome, result.models_checked, result.world, model


class TestFindCountermodel:
    @pytest.mark.parametrize("text", PROVE_FORMULAS)
    def test_prove_formulas(self, text):
        f = parse_formula(text)
        assert search(f) == reference_search(f)

    @pytest.mark.parametrize(
        "text, atoms", [("a -> b", 2), ("~AX~b -> EX a", 2), ("A[a U zz] -> zz | EX x", 3)]
    )
    def test_renamed_atoms(self, text, atoms):
        f = parse_formula(text)
        got = search(f, max_worlds=3, atoms=atoms)
        assert got == reference_search(f, 3, atoms)
        assert got[0] == "countermodel"

    @pytest.mark.parametrize(
        "text, max_worlds, budget, seed",
        [
            ("p -> p", 1, 40, 3),
            ("A[p U q] -> q | (p & AX A[p U q])", 2, 60, 7),
            ("E[p U q] -> q | (p & EX E[p U q])", 0, 25, 1),
            ("~AX~p -> EX p", 0, 25, 2),
        ],
    )
    def test_budget(self, text, max_worlds, budget, seed):
        f = parse_formula(text)
        bounds = {"max_worlds": max_worlds, "budget": budget, "seed": seed}
        assert search(f, **bounds) == reference_search(f, max_worlds, 2, budget, seed)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_enumerate_models_equals_the_flattened_batches(n):
    names = atom_names(2)
    by_product = [
        (up, succ, dict(zip(names, assignment)))
        for up, succ in enumerate_frames(n)
        for assignment in product(upward_closed_masks(up), repeat=2)
    ]
    flattened = [
        (frame.up, frame.succ, dict(zip(names, assignment)))
        for _, frame, batch in gen._sweep(range(n, n + 1), 2, 0, 0)
        for assignment in batch
    ]
    models = [(m.up, m.succ, m.val) for m in enumerate_models(n, 2)]
    assert models == flattened == by_product


def test_model_stream_equals_the_flattened_batches():
    names = atom_names(2)
    flattened = [
        (frame.up, frame.succ, dict(zip(names, assignment)))
        for _, frame, batch in gen._sweep(range(1, 3), 2, 9, 4)
        for assignment in batch
    ]
    models = model_stream(range(1, 3), 2, samples=9, seed=4)
    assert [(m.up, m.succ, m.val) for m in models] == flattened


@pytest.mark.parametrize("cap", [100, 4])
def test_scan_of_interleaved_frames_equals_per_model_scans(monkeypatch, cap):
    # the broken rule makes disagreements to compare
    monkeypatch.setattr(checker, "forall_next_set", lambda m, a: pre_forall(m, a))
    battery = compile_formulas(enumerate_formulas(2, ["p", "q"]))
    models = [m for n in (1, 2) for m in enumerate_models(n, 2)]
    # first the frames alternate, then each frame's models come in one run
    stream = sorted(models, key=lambda m: tuple(m.val.values())) + models
    got = scan_models(stream, battery, max_disagreements=cap)
    singles = [scan_models([m], battery, max_disagreements=cap) for m in stream]
    assert got.models == sum(s.models for s in singles) == len(stream)
    assert got.verdicts == sum(s.verdicts for s in singles)
    assert got.disagreements == [d for s in singles for d in s.disagreements][:cap]
    assert len(got.disagreements) == min(cap, 2 * 12)


class TestChunks:
    """A one-world frame with 2**14 valuations goes through ``run_frame``
    in chunks of at most ``MAX_BATCH`` that share the frame's memo."""

    ATOMS = [f"a{i}" for i in range(14)]

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def recording(module):
            original = module.run_frame

            def wrapper(program, frame, columns, size, ops, memo):
                seen.append((size, id(memo)))
                return original(program, frame, columns, size, ops, memo)

            monkeypatch.setattr(module, "run_frame", wrapper)

        recording(gen)
        recording(harness)
        return seen

    @pytest.mark.parametrize(
        "text",
        [
            " & ".join(ATOMS) + " -> false",  # refuted by the last valuation only
            "a3 & a12 -> a7 | ~a0",
            " | ".join(ATOMS) + " -> " + " | ".join(ATOMS),  # holds everywhere
        ],
    )
    def test_find_countermodel(self, calls, text):
        f = parse_formula(text)
        want = reference_search(f, max_worlds=1, atoms=14)
        assert search(f, max_worlds=1, atoms=14) == want
        assert 0 < len(calls) <= 2**14 // MAX_BATCH
        assert all(size <= MAX_BATCH for size, _ in calls)
        assert len({memo for _, memo in calls}) == 1
        if want[0] == "exhausted":
            assert want[1] == 2**14
            assert [size for size, _ in calls] == [MAX_BATCH] * (2**14 // MAX_BATCH)

    def test_scan_models(self, calls):
        battery = [parse_formula("a3 & a12 -> AX a7 | ~a0"), parse_formula("E[a1 U a13]")]
        program = compile_formulas(battery)
        models = list(enumerate_models(1, 14))
        assert len(models) == 2**14
        stats = scan_models(models, program)
        assert [size for size, _ in calls] == [MAX_BATCH] * (2**14 // MAX_BATCH)
        assert len({memo for _, memo in calls}) == 1
        assert stats.ok and stats.models == 2**14
        assert stats.verdicts == len(program.nodes) * 2**14

    def test_sweep_splits_the_frame(self):
        batches = [(frame, batch) for _, frame, batch in gen._sweep(range(1, 2), 14, 0, 0) if batch]
        assert [len(batch) for _, batch in batches] == [MAX_BATCH] * (2**14 // MAX_BATCH)
        assert len({id(frame) for frame, _ in batches}) == 1
        assert [a for _, batch in batches for a in batch] == list(product((0, 1), repeat=14))


def test_run_is_a_batch_of_one():
    m = BirelationalModel(("w0", "w1"), (3, 2), (2, 3), {"p": 2, "q": 0})
    program = compile_formulas([parse_formula("AX p -> E[p U q] | ~q")])
    ops = checker.operators()
    cols = run_frame(program, m, {"p": [2], "q": [0]}, 1, ops, {})
    assert run(program, m, ops) == [col[0] for col in cols] == scalar_run(program, m, ops, {})
