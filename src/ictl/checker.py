"""Fixpoint labeling engine.

:func:`operators` is the engine's kind-indexed rule table for
:func:`~ictl.syntax.run`; :func:`denote` and :func:`check` run it over
the formula's compiled :class:`~ictl.syntax.Program`, and :func:`denote`
keys that run by subformula.  A search compiles its formula once and runs
this table with :func:`~ictl.syntax.run_frame` once per batch of a frame.

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

A temporal verdict comes with path evidence read off these sets: a
lasso built by one walk, which moves at step i to the lowest successor
inside layer i, then to the lowest successor inside a region to stay in,
and closes at the first world it revisits.  EX f has the one layer [[f]].
The layers of E[f U g] are the backward frontiers from [[g]] through
[[f]] & ~[[g]], grown as by :func:`_backward`: layer k holds the worlds
whose shortest path to [[g]] takes k steps, so taking the lowest world
that can still finish a shortest path walks the lexicographically least
one.  E[f R g] walks so through [[g]] & ~[[f]] to [[f]] & [[g]], or else
inside E[false R g], the greatest fixpoint of Z = [[g]] n pre_exists(Z),
whose every world has a successor in it, so a cycle closes inside [[g]].
A false universal is shown by duality: it fails at w exactly where its
classical dual holds at some P-greater world, with ~AX f = EX ~f,
~A[f U g] = E[~f R ~g] and ~A[f R g] = E[~f U ~g], so its evidence is the
dual's walk from the lowest such world, the counterexample shape of
Clarke, Jha, Lu and Veith.  So evidence exists for every verdict it
explains, and :func:`check` returns it only once the oracle's lasso
predicates accept it, as in Namjoshi's certifying model checkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
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
from .oracle import Lasso, lasso_is_path, lasso_satisfies_release, lasso_satisfies_until
from .syntax import _AR, _AU, _AX, _ER, _EU, _EX, _IMP, _SYNTAX, Formula, compile_formulas, run

__all__ = [
    "lfp",
    "gfp",
    "operators",
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
    return up_interior(m, _backward(m, b, a, True))


def forall_release_set(m: BirelationalModel, a: int, b: int) -> int:
    return up_interior(m, complement(m, _backward(m, complement(m, b), complement(m, a), False)))


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


def denote(
    m: BirelationalModel, f: Formula, *, validate: bool = True
) -> dict[Formula, int]:
    """Denotation bitmask for every distinct subformula of ``f``, in
    :func:`~ictl.syntax.subformulas` order.

    ``validate=False`` skips frame validation for a caller that has
    already validated ``m``, as ``ictl denote`` has.
    """
    if validate:
        ensure_valid(m)
    program = compile_formulas([f])
    return dict(zip(program.formulas, run(program, m, operators())))


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
    """Verdict of ``f`` at ``world`` plus, when ``f`` is temporal, the path
    evidence for it: a witness path for a satisfied existential, a
    universal failure for a failed universal.

    Evidence that the oracle's lasso predicates reject over the child
    masks (:func:`_shows`) is dropped, leaving the verdict without it.

    ``validate=False`` skips frame validation, as in :func:`denote`.
    """
    if validate:
        ensure_valid(m)
    w = m.world_index(world)
    program = compile_formulas([f])
    sets = run(program, m, operators())
    kind, l, r = program.nodes[-1]
    sat = bool(sets[-1] >> w & 1)
    if not _owes_evidence(f, sat):
        return CheckOutcome(sat)
    explain = _path_witness if sat else _universal_failure
    a, b = sets[l], sets[r] if r >= 0 else 0
    witness = explain(m, kind, w, a, b)
    return CheckOutcome(sat, witness if _shows(m, kind, w, a, b, witness) else None)


# ---------------------------------------------------------------------------
# Witness extraction

# each universal kind's classical dual
_DUALS = {_AX: _EX, _AU: _ER, _AR: _EU}


def _owes_evidence(f: Formula, sat: bool) -> bool:
    """Whether the verdict ``sat`` on ``f`` is one that path evidence
    explains: ``f`` is a true existential or a false universal."""
    kind = _SYNTAX[type(f)][0]
    return kind > _IMP and sat != (kind in _DUALS)


def _layers(m: BirelationalModel, w: int, region: int, goal: int) -> list[int] | None:
    """The layers of a walk from ``w`` along a shortest path through
    ``region`` to ``goal``, or None if there is no such path: the backward
    frontiers from ``goal``, as :func:`_backward` grows them, up to the one
    holding ``w``, nearest ``w`` first."""
    layers = [goal]
    seen = goal
    while not seen >> w & 1:
        last = image(m.pred, layers[-1]) & region & ~seen
        if not last:
            return None
        layers.append(last)
        seen |= last
    return layers[-2::-1]


def _walk(m: BirelationalModel, w: int, steps: list[int], stay: int) -> Lasso:
    """The lasso from ``w`` that moves at step i to the lowest successor
    inside ``steps[i]``, then to the lowest successor inside ``stay``, and
    closes at the first world it revisits."""
    pos: dict[int, int] = {}
    todo = chain(steps, repeat(stay))
    while w not in pos:
        pos[w] = len(pos)
        nxt = m.succ[w] & next(todo)
        w = (nxt & -nxt).bit_length() - 1
    seq = tuple(pos)
    return Lasso(seq[:pos[w]], seq[pos[w]:])


def _path_witness(m: BirelationalModel, kind: int, w: int, a: int, b: int) -> Lasso | None:
    """A lasso from ``w`` along which the existential ``kind`` holds
    classically over the masks ``a`` (and ``b``), or None if the masks give
    no such path, that is if the verdict being explained was not this
    module's (a stubbed rule)."""
    if kind == _EX:
        return _walk(m, w, [a], m.full) if m.succ[w] & a else None
    steps = _layers(m, w, a & ~b, b) if kind == _EU else _layers(m, w, b & ~a, a & b)
    if steps is not None:
        return _walk(m, w, steps, m.full)
    if kind == _ER:  # no a-and-b world ahead: a cycle in E[false R b]
        stay = complement(m, _backward(m, complement(m, b), m.full, True))
        return _walk(m, w, [], stay) if stay >> w & 1 else None
    return None


def _universal_failure(
    m: BirelationalModel, kind: int, w: int, a: int, b: int
) -> UniversalFailure | None:
    """The lowest P-greater world of ``w`` where the classical dual of the
    universal ``kind`` holds, with that dual's :func:`_path_witness`.

    None only if there is no such world, that is if the verdict being
    explained was not this module's (a stubbed rule).
    """
    na, nb = complement(m, a), complement(m, b)
    if kind == _AX:  # AX a has the dual EX ~a
        dual = image(m.pred, na)
    else:  # A[a U b] has the dual E[~a R ~b], A[a R b] has E[~a U ~b]
        dual = ~_backward(m, b, a, True) if kind == _AU else _backward(m, nb, na, False)
    x = next(iter_bits(m.up[w] & dual), None)
    if x is None:
        return None
    return UniversalFailure(m.worlds[x], _path_witness(m, _DUALS[kind], x, na, nb))


def _shows(
    m: BirelationalModel, kind: int, w: int, a: int, b: int, witness: Lasso | UniversalFailure | None
) -> bool:
    """Whether ``witness`` is evidence for the temporal ``kind`` at ``w``
    over the child masks ``a`` and ``b``, by the oracle's lasso predicates:
    a path from ``w`` along which the existential ``kind`` holds
    classically, or, against a universal, a P-greater world with such a
    path for the classical dual over ``~a`` and ``~b``."""
    if isinstance(witness, UniversalFailure):
        x = m.index[witness.world]
        if not m.up[w] >> x & 1:
            return False
        kind, w, a, b = _DUALS[kind], x, complement(m, a), complement(m, b)
        witness = witness.lasso
    if witness is None or not lasso_is_path(m, witness) or witness.states()[0] != w:
        return False
    if kind == _EX:
        return bool(a >> (witness.states() + witness.cycle)[1] & 1)
    holds = lasso_satisfies_until if kind == _EU else lasso_satisfies_release
    return holds(m, witness, a, b)
