"""``check``'s evidence against a reference copy of its former witness
searches.

``reference_check`` keeps, as they were before the universal failures were
read off their classical duals, the six per-operator witness functions
and the ``match`` that chose among them, and, as they were before every
witness became one walk down the backward layers, the three graph
searches they call: a breadth-first shortest path (``_shortest_path_in``),
a depth-first lasso inside a region (``_cycle_lasso_in``) and the greedy
extension of a path to a lasso (``_extend_to_lasso``).  It shares only the
worklist ``_backward`` with the engine.  ``TestWalkMatchesSearches``
compares the walk with those searches directly on random graphs.
"""

from __future__ import annotations

import json
import random
from itertools import islice

import pytest

from helpers import enumerate_lassos, witness_revalidates
from ictl import checker
from ictl.checker import (
    CheckOutcome,
    UniversalFailure,
    _backward,
    _layers,
    _walk,
    check,
    denote,
)
from ictl.fixtures import four_world_model
from ictl.gen import GenParams, enumerate_models, product_frame, random_model
from ictl.model import BirelationalModel, build_model, complement, iter_bits
from ictl.cli import main
from ictl.oracle import (
    Lasso,
    lasso_is_path,
    lasso_satisfies_release,
    lasso_satisfies_until,
    oracle_denotation,
)
from ictl.syntax import (
    ExistsNext,
    ExistsRelease,
    ExistsUntil,
    ForallNext,
    ForallRelease,
    ForallUntil,
    _IMP,
    compile_formulas,
    parse_formula,
    run,
)


def _extend_to_lasso(m: BirelationalModel, path: list[int]) -> Lasso:
    """Walk an R-path, then extend it greedily (lowest successor first),
    and close the lasso at the first world it revisits, so no world repeats."""
    seq: list[int] = []
    pos: dict[int, int] = {}
    w = path[0]
    while w not in pos:
        pos[w] = len(seq)
        seq.append(w)
        w = path[len(seq)] if len(seq) < len(path) else (m.succ[w] & -m.succ[w]).bit_length() - 1
    return Lasso(tuple(seq[:pos[w]]), tuple(seq[pos[w]:]))


def _shortest_path_in(
    m: BirelationalModel, start: int, region: int, goal: int
) -> list[int] | None:
    """BFS path from ``start`` staying in ``region`` until hitting ``goal``.

    ``start`` itself may satisfy the goal; intermediate hops must lie in
    ``region``.  Returns the world sequence, or None.
    """
    if goal >> start & 1:
        return [start]
    if not (region >> start & 1):
        return None
    parent = {start: -1}
    frontier = [start]
    while frontier:
        nxt_frontier = []
        for x in frontier:
            for y in iter_bits(m.succ[x]):
                if y in parent:
                    continue
                parent[y] = x
                if goal >> y & 1:
                    seq = [y]
                    while seq[-1] != start:
                        seq.append(parent[seq[-1]])
                    return seq[::-1]
                if region >> y & 1:
                    nxt_frontier.append(y)
        frontier = nxt_frontier
    return None


def _cycle_lasso_in(m: BirelationalModel, start: int, region: int) -> Lasso | None:
    """DFS for a lasso from ``start`` staying entirely inside ``region``."""
    if not (region >> start & 1):
        return None
    stack = [start]
    on_stack = {start: 0}
    iters = [iter_bits(m.succ[start] & region)]
    dead = 0
    while stack:
        y = next(iters[-1], -1)
        if y < 0:
            x = stack.pop()
            del on_stack[x]
            dead |= 1 << x
            iters.pop()
            continue
        if y in on_stack:
            k = on_stack[y]
            return Lasso(tuple(stack[:k]), tuple(stack[k:]))
        if dead >> y & 1:
            continue
        on_stack[y] = len(stack)
        stack.append(y)
        iters.append(iter_bits(m.succ[y] & region))
    return None


# every temporal top operator, over atoms and over compound children
FORMULAS = [
    parse_formula(t)
    for t in [
        "EX p",
        "AX p",
        "E[p U q]",
        "E[p R q]",
        "A[p U q]",
        "A[p R q]",
        "EX ~q",
        "AX (p -> q)",
        "E[(q -> p) U AX p]",
        "E[q R (p | AX q)]",
        "A[~q U EX p]",
        "A[p R ~q]",
    ]
]


def _classical_au(m, a, b):
    return _backward(m, b, a, True)


def _classical_ar(m, a, b):
    return complement(m, _backward(m, complement(m, b), complement(m, a), False))


def _ex_witness(m, w, amask):
    nxt = next(iter_bits(m.succ[w] & amask))
    return _extend_to_lasso(m, [w, nxt])


def _eu_witness(m, w, amask, bmask):
    path = _shortest_path_in(m, w, amask & ~bmask, bmask)
    assert path is not None
    return _extend_to_lasso(m, path)


def _er_witness(m, w, amask, bmask):
    path = _shortest_path_in(m, w, bmask & ~amask, amask & bmask)
    if path is not None:
        return _extend_to_lasso(m, path)
    lasso = _cycle_lasso_in(m, w, bmask)
    assert lasso is not None
    return lasso


def _ax_failure(m, w, amask):
    for wp in iter_bits(m.up[w]):
        bad = m.succ[wp] & ~amask
        if bad:
            u = next(iter_bits(bad))
            return UniversalFailure(m.worlds[wp], _extend_to_lasso(m, [wp, u]))
    return None


def _au_failure(m, w, amask, bmask):
    # classical until fails along some path from a P-greater world: either a
    # path through ~g to a ~f&~g world, or a ~g cycle reached through ~g
    for wp in iter_bits(m.up[w] & ~_classical_au(m, amask, bmask)):
        path = _shortest_path_in(m, wp, ~bmask & m.full, m.full & ~amask & ~bmask)
        if path is not None:
            return UniversalFailure(m.worlds[wp], _extend_to_lasso(m, path))
        lasso = _cycle_lasso_in(m, wp, m.full & ~bmask)
        if lasso is not None:
            return UniversalFailure(m.worlds[wp], lasso)
    return None


def _ar_failure(m, w, amask, bmask):
    # classical release fails via a path through ~f to a ~g world
    for wp in iter_bits(m.up[w] & ~_classical_ar(m, amask, bmask)):
        path = _shortest_path_in(m, wp, m.full & ~amask, m.full & ~bmask)
        if path is not None:
            return UniversalFailure(m.worlds[wp], _extend_to_lasso(m, path))
    return None


def reference_check(m, world, f):
    w = m.world_index(world)
    sets = denote(m, f, validate=False)
    sat = bool(sets[f] >> w & 1)
    witness = None
    match f:
        case ExistsNext(s) if sat:
            witness = _ex_witness(m, w, sets[s])
        case ExistsUntil(l, r) if sat:
            witness = _eu_witness(m, w, sets[l], sets[r])
        case ExistsRelease(l, r) if sat:
            witness = _er_witness(m, w, sets[l], sets[r])
        case ForallNext(s) if not sat:
            witness = _ax_failure(m, w, sets[s])
        case ForallUntil(l, r) if not sat:
            witness = _au_failure(m, w, sets[l], sets[r])
        case ForallRelease(l, r) if not sat:
            witness = _ar_failure(m, w, sets[l], sets[r])
    return CheckOutcome(sat, witness)


def assert_same_evidence(m, worlds=None, formulas=FORMULAS):
    """``check`` equals the reference at ``worlds`` (default: all) for every
    formula, and its evidence revalidates under the oracle; returns the
    number of outcomes that carry evidence."""
    with_evidence = 0
    for f in formulas:
        sets = oracle_denotation(m, f)
        for world in m.worlds if worlds is None else worlds:
            got = check(m, world, f, validate=False)
            assert got == reference_check(m, world, f), (world, f)
            assert witness_revalidates(m, world, f, got, sets), (world, f)
            if got.witness is not None:
                # each path has one lasso form, the one enumerate_lassos gives
                w = got.witness
                start, lasso = (world, w) if isinstance(w, Lasso) else (w.world, w.lasso)
                assert lasso in enumerate_lassos(m, start), (world, f, got)
                with_evidence += 1
    return with_evidence


def cycle_model(n):
    """An ``n``-world cycle, discrete preorder; ``q`` at one world, ``p`` elsewhere."""
    worlds = [f"c{i}" for i in range(n)]
    return build_model(
        worlds,
        [],
        [(worlds[i], worlds[(i + 1) % n]) for i in range(n)],
        {w: ["q"] if i == 0 else ["p"] for i, w in enumerate(worlds)},
    )


def product_model(stages, ring):
    """A chain of ``stages`` times a ``ring`` of states with sparse chords;
    ``q`` at two states of the upper stages, ``p`` almost everywhere."""
    ks = [f"k{k}" for k in range(stages)]
    states = [f"s{j}" for j in range(ring)]
    trans = [(states[j], states[(j + 1) % ring]) for j in range(ring)]
    trans += [(states[j], states[(j + 7) % ring]) for j in range(0, ring, 40)]
    val = {
        (k, s): (["p"] if j % 50 != 25 or i >= 2 else []) + (["q"] if j in (0, 117) and i >= 2 else [])
        for i, k in enumerate(ks)
        for j, s in enumerate(states)
    }
    return product_frame(ks, list(zip(ks, ks[1:])), states, trans, val)


class TestEvidenceMatchesReference:
    def test_fixture(self):
        assert assert_same_evidence(four_world_model()) > 0

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_small_model(self, n):
        assert sum(assert_same_evidence(m) for m in enumerate_models(n, 2)) > 0

    def test_slice_of_three_world_models(self):
        models = islice(enumerate_models(3, 2), 0, None, 211)
        assert sum(assert_same_evidence(m) for m in models) > 0

    def test_random_models(self):
        total = 0
        for k in range(70):
            params = GenParams(n_worlds=2 + k % 7, n_atoms=2, seed=7000 + k)
            total += assert_same_evidence(random_model(params))
        assert total > 0

    def test_product_model(self):
        m = product_model(4, 250)
        assert m.n == 1000
        worlds = ["k0.s24", "k0.s25", "k1.s100", "k2.s116", "k3.s249"]
        assert assert_same_evidence(m, worlds) > 0

    def test_2000_world_cycle(self):
        # the six operators over atoms: the oracle's until sets are quadratic
        # here, so the compound children are left to the models above
        m = cycle_model(2000)
        assert assert_same_evidence(m, ["c0", "c1", "c1000", "c1999"], FORMULAS[:6]) > 0

    def test_fixture_gives_evidence_for_every_operator(self):
        m = four_world_model()
        kinds = {type(f) for f in FORMULAS for w in m.worlds if check(m, w, f).witness}
        assert kinds == {
            ExistsNext, ForallNext, ExistsUntil, ExistsRelease, ForallUntil, ForallRelease
        }


def test_evidence_calls_no_rule(monkeypatch):
    # the evidence reads _backward and the masks, never a stubbable
    # checker.<op>_set, so each rule runs once per node of its kind
    m = four_world_model()
    want = {(f, w): check(m, w, f) for f in FORMULAS for w in m.worlds}
    calls = []
    for op in checker.operators():
        if op is not None:
            def counting(*args, op=op):
                calls.append(op.__name__)
                return op(*args)

            monkeypatch.setattr(checker, op.__name__, counting)
    for (f, w), outcome in want.items():
        calls.clear()
        assert check(m, w, f) == outcome
        program = compile_formulas([f])
        assert len(calls) == sum(kind >= _IMP for kind, _, _ in program.nodes)


def test_stubbed_universal_rule_changes_only_the_verdict(monkeypatch):
    # a wrong rule that fails AX everywhere leaves no P-greater world where
    # the dual EX ~true holds, so the verdict comes without evidence
    m = four_world_model()
    monkeypatch.setattr(checker, "forall_next_set", lambda m, a: 0)
    for world in m.worlds:
        assert check(m, world, parse_formula("AX true")) == CheckOutcome(False, None)


# a wrong rule whose verdict at v2 owes a path that the masks cannot give:
# rule -> (stub, formula, the engine's claim)
UNEXPLAINED = {
    "exists_until_set": (lambda m, a, b: m.full, "E[p U q]", True),
    "forall_next_set": (lambda m, a: 0, "AX true", False),
}


def assert_no_evidence(capsys, code, fmt, claim):
    """``main`` exited 4 with verdict ``no evidence`` on the engine's
    ``claim``."""
    out, err = capsys.readouterr()
    assert (code, err) == (4, "")
    if fmt == "human":
        assert out == f"{'satisfied' if claim else 'not satisfied'}\nENGINE GIVES NO EVIDENCE\n"
    else:
        doc = json.loads(out)
        assert (doc["verdict"], doc["witness"]) == ("no evidence", None)
        assert doc["report"] == [{"engine": "fixpoint", "satisfied": claim}]


@pytest.mark.parametrize("fmt", ["human", "json"])
@pytest.mark.parametrize("rule", UNEXPLAINED)
def test_verdict_without_its_evidence_exits_4(monkeypatch, capsys, four_world_path, rule, fmt):
    stub, text, claim = UNEXPLAINED[rule]
    monkeypatch.setattr(checker, rule, stub)
    code = main(["--format", fmt, "check", four_world_path, "v2", text])
    assert_no_evidence(capsys, code, fmt, claim)


# a wrong walk, and evidence it gives that check must not return:
# the self-loop at v2, which starts at neither world below, and the
# self-loop at the walk's start, which is no path at w1 and at v1 ends
# its first step in p
WRONG_WALKS = {
    "starts at v2": lambda m, w, steps, stay: Lasso((), (3,)),
    "loops at its start": lambda m, w, steps, stay: Lasso((), (w,)),
}
# formula -> (world, the engine's claim): true EX q owes a path from w1,
# false AX p a P-greater world with a path into ~p
DROPPED = {"EX q": ("w1", True), "AX p": ("v1", False)}


@pytest.mark.parametrize("fmt", ["human", "json"])
@pytest.mark.parametrize("text", DROPPED)
@pytest.mark.parametrize("walk", WRONG_WALKS)
def test_unchecked_evidence_is_dropped(monkeypatch, capsys, four_world_path, walk, text, fmt):
    world, claim = DROPPED[text]
    assert check(four_world_model(), world, parse_formula(text)).witness is not None
    monkeypatch.setattr(checker, "_walk", WRONG_WALKS[walk])
    assert check(four_world_model(), world, parse_formula(text)) == CheckOutcome(claim, None)
    code = main(["--format", fmt, "check", four_world_path, world, text])
    assert_no_evidence(capsys, code, fmt, claim)


EXISTENTIAL_STUBS = {
    "exists_next_set": ["EX p", "EX q", "EX false"],
    "exists_until_set": ["E[p U q]", "E[q U p]", "E[p U false]"],
    "exists_release_set": ["E[p R q]", "E[q R p]", "E[false R p]"],
}


@pytest.mark.parametrize("rule", EXISTENTIAL_STUBS)
def test_stubbed_existential_rule_gives_a_path_or_none(monkeypatch, capsys, four_world_path, rule):
    # a wrong rule that holds everywhere: where the child masks give no
    # path, the verdict comes without evidence, and any evidence given is
    # a real path over those masks
    m = four_world_model()
    monkeypatch.setattr(checker, rule, lambda m, *masks: m.full)
    for text in EXISTENTIAL_STUBS[rule]:
        f = parse_formula(text)
        program = compile_formulas([f])
        sets = run(program, m, checker.operators())
        kind, l, r = program.nodes[-1]
        a, b = sets[l], sets[r] if r >= 0 else 0
        for w, world in enumerate(m.worlds):
            # ends with a verdict, 4 where the oracle disagrees, never a traceback
            for fmt in ("human", "json"):
                assert main(["--format", fmt, "check", four_world_path, world, text]) in (0, 4)
            outcome = check(m, world, f)
            assert outcome.satisfied, (text, world)
            lasso = outcome.witness
            if lasso is None:
                continue
            assert lasso_is_path(m, lasso) and lasso.states()[0] == w, (text, world)
            if isinstance(f, ExistsNext):
                assert (lasso.states() + lasso.cycle)[1] in iter_bits(a), (text, world)
            elif isinstance(f, ExistsUntil):
                assert lasso_satisfies_until(m, lasso, a, b), (text, world)
            else:
                assert lasso_satisfies_release(m, lasso, a, b), (text, world)
        # v2 loops on itself, where p and q are false: no path to show
        assert check(m, "v2", f) == CheckOutcome(True, None)
    capsys.readouterr()


def random_graph(rng: random.Random, n: int) -> BirelationalModel:
    """A serial transition graph on ``n`` worlds under the discrete preorder:
    sparse (one or two successors per world), dense (each edge with
    probability 0.7) or in between, with or without self-loops."""
    density = rng.choice([0.0, 0.15, 0.4, 0.7])
    loops = rng.random() < 0.5
    succ = []
    for i in range(n):
        s = sum(1 << j for j in range(n) if (loops or j != i) and rng.random() < density)
        while not s:  # serial: at least one successor, a self-loop only where allowed
            j = rng.randrange(n)
            if loops or j != i or n == 1:
                s = 1 << j
        if density == 0.0 and rng.random() < 0.3:
            s |= 1 << rng.randrange(n)
        succ.append(s)
    worlds = tuple(f"w{i}" for i in range(n))
    return BirelationalModel(worlds, tuple(1 << i for i in range(n)), tuple(succ), {})


def random_mask(rng: random.Random, n: int) -> int:
    """A world set that is empty, full or each world with a random probability."""
    p = rng.choice([0.0, 0.2, 0.5, 0.8, 1.0])
    return sum(1 << i for i in range(n) if rng.random() < p)


class TestWalkMatchesSearches:
    def test_random_graphs(self):
        rng = random.Random(15)
        found = {"path": 0, "no path": 0, "cycle": 0, "no cycle": 0}
        for _ in range(20_000):
            n = rng.randint(1, 9)
            g = random_graph(rng, n)
            region, goal = random_mask(rng, n), random_mask(rng, n)
            cycle_region = complement(g, _backward(g, complement(g, region), g.full, True))
            for w in range(n):
                path = _shortest_path_in(g, w, region, goal)
                steps = _layers(g, w, region, goal)
                assert (steps is None) == (path is None), (g.succ, w, region, goal)
                if path is not None:
                    want = _extend_to_lasso(g, path)
                    assert _walk(g, w, steps, g.full) == want, (g.succ, w, region, goal)
                lasso = _cycle_lasso_in(g, w, region)
                assert (lasso is None) == (not cycle_region >> w & 1), (g.succ, w, region)
                if lasso is not None:
                    assert _walk(g, w, [], cycle_region) == lasso, (g.succ, w, region)
                found["no path" if path is None else "path"] += 1
                found["no cycle" if lasso is None else "cycle"] += 1
        # every case is met many times over
        assert min(found.values()) > 10_000, found
