"""Fixpoint labeling engine.

:func:`operators` is the engine's kind-indexed rule table for
:func:`~ictl.syntax.run`; :func:`evaluate` runs a compiled
:class:`~ictl.syntax.Program` with it, and :func:`denote` is that run
keyed by subformula.  A search that checks one formula on many models
compiles it once and calls :func:`evaluate` per model.

The temporal operators are the classical fixpoints over R applied to the
(already intuitionistic) subformula denotations; the universal ones are
then restricted to the worlds whose whole up-set qualifies, which keeps
every computed set upward-closed on valid frames:

    [[p]]        = valuation(p)
    [[false]]    = {}
    [[f & g]]    = [[f]] n [[g]]
    [[f | g]]    = [[f]] u [[g]]
    [[f -> g]]   = interior(~[[f]] u [[g]])
    [[EX f]]     = pre_exists([[f]])
    [[AX f]]     = interior(pre_forall([[f]]))
    [[E[f U g]]] = lfp Z. [[g]] u ([[f]] n pre_exists(Z))
    [[E[f R g]]] = gfp Z. [[g]] n ([[f]] u pre_exists(Z))
    [[A[f U g]]] = interior(lfp Z. [[g]] u ([[f]] n pre_forall(Z)))
    [[A[f R g]]] = interior(gfp Z. [[g]] n ([[f]] u pre_forall(Z)))

where ``interior`` is the upward interior.

These equations are the definition; the engine does not iterate them
round by round.  Each until/release set comes from one backward worklist
over the model's predecessor masks, as in the CTL labeling of Clarke,
Emerson and Sistla: :func:`_backward` grows a set from a seed by adding
the allowed worlds with some (or all) R-successors already inside,
looking only at ``image(pred, frontier)``, the predecessors of the
worlds added last, so each world enters the frontier at most once.
E[f U g] grows from [[g]] through [[f]] with "some", A[f U g] with
"all"; the release sets are the complements of the dual untils,
E[f R g] = ~(grow ~[[g]] through ~[[f]] with "all") and
A[f R g] = interior(~(the same with "some")).
:func:`lfp` (also :func:`gfp`) iterates an equation as written and is
kept for checking the kernel against the definition.

Witnesses for the temporal verdicts are extracted from these sets and
small graph searches; they are best-effort evidence, the boolean verdict
is the contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .model import (
    BirelationalModel,
    complement,
    ensure_valid,
    image,
    iter_bits,
    pre_exists,
    pre_forall,
    up_interior,
)
from .oracle import Lasso
from .syntax import (
    _IMP,
    ExistsNext,
    ExistsRelease,
    ExistsUntil,
    ForallNext,
    ForallRelease,
    ForallUntil,
    Formula,
    Program,
    compile_formulas,
    run,
)

__all__ = [
    "lfp",
    "gfp",
    "operators",
    "evaluate",
    "denote",
    "check",
    "valid_in_model",
    "CheckOutcome",
    "UniversalFailure",
    "implication_set",
    "exists_next_set",
    "forall_next_set",
    "exists_until_set",
    "exists_release_set",
    "forall_until_set",
    "forall_release_set",
]


def lfp(f: Callable[[int], int], start: int = 0) -> int:
    """Iterate a monotone bitmask transformer from ``start`` until it is
    stable: from the empty set this is the least fixed point, from the
    full set (as :func:`gfp`) the greatest."""
    z = start
    while True:
        nz = f(z)
        if nz == z:
            return z
        z = nz


gfp = lfp


# Per-operator set transformers.  ``operators`` reads these module-level
# names at call time so tests can stub individual rules.

def implication_set(m: BirelationalModel, a: int, b: int) -> int:
    return up_interior(m, complement(m, a) | b)


def exists_next_set(m: BirelationalModel, a: int) -> int:
    return pre_exists(m, a)


def forall_next_set(m: BirelationalModel, a: int) -> int:
    return up_interior(m, pre_forall(m, a))


def exists_until_set(m: BirelationalModel, a: int, b: int) -> int:
    return _backward(m, b, a, False)


def exists_release_set(m: BirelationalModel, a: int, b: int) -> int:
    return complement(m, _backward(m, complement(m, b), complement(m, a), True))


def forall_until_set(m: BirelationalModel, a: int, b: int) -> int:
    return up_interior(m, _classical_au(m, a, b))


def forall_release_set(m: BirelationalModel, a: int, b: int) -> int:
    return up_interior(m, _classical_ar(m, a, b))


def _classical_au(m: BirelationalModel, a: int, b: int) -> int:
    """Worlds where every R-path satisfies ``a U b``, the preorder ignored."""
    return _backward(m, b, a, True)


def _classical_ar(m: BirelationalModel, a: int, b: int) -> int:
    """Worlds where every R-path satisfies ``a R b``, the preorder ignored."""
    return complement(m, _backward(m, complement(m, b), complement(m, a), False))


def _backward(m: BirelationalModel, start: int, allowed: int, every: bool) -> int:
    """Least Z containing ``start`` and every ``allowed`` world with some
    (``every``: all) of its R-successors in Z.

    Each round looks only at the predecessors of the worlds the previous
    round added, so a world joins the frontier at most once.  With
    ``every``, worlds without successors qualify at once and are seeded.
    """
    pred, succ = m.pred, m.succ
    z = start
    if every and not all(succ):
        for i, s in enumerate(succ):
            if not s:
                z |= allowed & (1 << i)
    allowed &= ~z
    frontier = z
    while frontier:
        cand = image(pred, frontier) & allowed
        if every:
            outside = ~z
            for c in iter_bits(cand):
                if succ[c] & outside:
                    cand ^= 1 << c
        z |= cand
        allowed ^= cand
        frontier = cand
    return z


def operators() -> tuple[Callable | None, ...]:
    """The engine's rules indexed by node kind, read from this module's
    globals when called, so a stubbed ``checker.<op>_set`` is the one
    that runs."""
    return (None,) * _IMP + (
        implication_set,
        exists_next_set,
        forall_next_set,
        exists_until_set,
        exists_release_set,
        forall_until_set,
        forall_release_set,
    )


def evaluate(m: BirelationalModel, program: Program) -> list[int]:
    """Denotation bitmask of every node of ``program``, in table order.

    The model is not validated.
    """
    return run(program, m, operators(), {})


def denote(
    m: BirelationalModel, f: Formula, *, validate: bool = True
) -> dict[Formula, int]:
    """Denotation bitmask for every distinct subformula of ``f``, in
    :func:`~ictl.syntax.subformulas` order.

    ``validate=False`` skips frame validation for callers that already
    guarantee a valid model (generators, bulk scans).
    """
    if validate:
        ensure_valid(m)
    program = compile_formulas([f])
    return dict(zip(program.formulas, evaluate(m, program)))


def valid_in_model(m: BirelationalModel, f: Formula, *, validate: bool = True) -> bool:
    """True iff ``f`` is satisfied at every world of ``m``."""
    return denote(m, f, validate=validate)[f] == m.full


@dataclass(frozen=True)
class UniversalFailure:
    """Evidence against a universal operator: a P-greater world whose
    transition graph carries a falsifying lasso."""

    world: str
    lasso: Lasso


@dataclass(frozen=True)
class CheckOutcome:
    satisfied: bool
    witness: Lasso | UniversalFailure | None = None


def check(
    m: BirelationalModel, world: str, f: Formula, *, validate: bool = True
) -> CheckOutcome:
    """Verdict of ``f`` at ``world`` plus best-effort path evidence.

    ``validate=False`` skips frame validation, as in :func:`denote`.
    """
    if validate:
        ensure_valid(m)
    w = m.world_index(world)
    sets = denote(m, f, validate=False)
    sat = bool(sets[f] >> w & 1)
    witness: Lasso | UniversalFailure | None = None
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


# ---------------------------------------------------------------------------
# Witness extraction

def _extend_to_lasso(m: BirelationalModel, path: list[int]) -> Lasso:
    """Extend an R-path greedily (lowest successor first) until it revisits."""
    seq = list(path)
    pos = {}
    for i, w in enumerate(seq):
        pos.setdefault(w, i)
    while True:
        nxt = (m.succ[seq[-1]] & -m.succ[seq[-1]]).bit_length() - 1
        if nxt in pos:
            k = pos[nxt]
            return Lasso(tuple(seq[:k]), tuple(seq[k:]))
        pos[nxt] = len(seq)
        seq.append(nxt)


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


def _ex_witness(m: BirelationalModel, w: int, amask: int) -> Lasso:
    nxt = next(iter_bits(m.succ[w] & amask))
    return _extend_to_lasso(m, [w, nxt])


def _eu_witness(m: BirelationalModel, w: int, amask: int, bmask: int) -> Lasso:
    path = _shortest_path_in(m, w, amask & ~bmask, bmask)
    assert path is not None
    return _extend_to_lasso(m, path)


def _er_witness(m: BirelationalModel, w: int, amask: int, bmask: int) -> Lasso:
    path = _shortest_path_in(m, w, bmask & ~amask, amask & bmask)
    if path is not None:
        return _extend_to_lasso(m, path)
    lasso = _cycle_lasso_in(m, w, bmask)
    assert lasso is not None
    return lasso


def _ax_failure(m: BirelationalModel, w: int, amask: int) -> UniversalFailure | None:
    for wp in iter_bits(m.up[w]):
        bad = m.succ[wp] & ~amask
        if bad:
            u = next(iter_bits(bad))
            return UniversalFailure(m.worlds[wp], _extend_to_lasso(m, [wp, u]))
    return None


def _au_failure(m: BirelationalModel, w: int, amask: int, bmask: int) -> UniversalFailure | None:
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


def _ar_failure(m: BirelationalModel, w: int, amask: int, bmask: int) -> UniversalFailure | None:
    # classical release fails via a path through ~f to a ~g world
    for wp in iter_bits(m.up[w] & ~_classical_ar(m, amask, bmask)):
        path = _shortest_path_in(m, wp, m.full & ~amask, m.full & ~bmask)
        if path is not None:
            return UniversalFailure(m.worlds[wp], _extend_to_lasso(m, path))
    return None
