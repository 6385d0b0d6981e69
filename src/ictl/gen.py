"""Model generators and bounded countermodel search.

Three ways to produce valid models:

* :func:`enumerate_models` streams every valid model up to a size bound,
  in a fixed deterministic order (preorder, then transition relation,
  then valuation);
* :func:`random_model` samples one: random DAG closed to a preorder,
  serial transitions at a target density, rejection plus edge-adding
  repair for the commutation conditions, valuation sampled upward-closed;
* :func:`product_frame` builds one correct by construction from a stage
  poset and an ordinary serial transition graph.

:func:`enumerate_frames` assigns each preorder's transitions world by
world and drops a partial assignment at the first C1 or C2 check it
decides (:func:`~ictl.model.c1_holds`, :func:`~ictl.model.c2_holds`), so
it yields a brute-force filter's frames in the same order without
building the rejected candidates; every frame with 4 worlds is within
reach.  :func:`frame_batches` is the one exhaustive source: each valid
frame of a world count with its valuations, as tuples of masks in batches
of at most :data:`~ictl.syntax.MAX_BATCH`, with each preorder's masks and
valuations built once for all of its frames.  :func:`model_batches`
chains those batches over world counts and appends seeded random models
as batches of one; :func:`enumerate_models` and :func:`model_stream` are
the same streams one model at a time, and ``ictl compare`` scans the
latter.

:func:`find_countermodel` looks for a model and world refuting a formula,
double-checking any hit against the path oracle before returning it.  It
compiles the formula once into a :class:`~ictl.syntax.Program`, with its
atoms bound to the generators' atom slots, and evaluates each batch in
one :func:`~ictl.syntax.run_frame` call, with the engine's rules, read
once per search, and one operator memo per frame.  Only a hit is built
into a model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import islice, product
from typing import Iterable, Iterator, Sequence

from .checker import operators
from .model import (
    BirelationalModel,
    _close_masks,
    _transpose,
    c1_holds,
    c2_holds,
    frame_violations,
    image,
    iter_bits,
)
from .oracle import oracle_check
from .syntax import (
    And,
    Atom,
    BOTTOM,
    ExistsNext,
    ExistsRelease,
    ExistsUntil,
    ForallNext,
    ForallRelease,
    ForallUntil,
    Formula,
    Implies,
    MAX_BATCH,
    Or,
    compile_formulas,
    run_frame,
)

__all__ = [
    "GenParams",
    "EngineDisagreementError",
    "SearchResult",
    "atom_names",
    "enumerate_preorders",
    "upward_closed_masks",
    "frame_conditions_hold",
    "enumerate_frames",
    "frame_batches",
    "enumerate_models",
    "random_model",
    "model_batches",
    "model_stream",
    "product_frame",
    "find_countermodel",
    "random_formula",
    "enumerate_formulas",
]

_ATOM_POOL = "pqrstuvabcdefgh"


class EngineDisagreementError(AssertionError):
    """Fixpoint engine and path oracle returned different verdicts."""


@dataclass(frozen=True)
class GenParams:
    n_worlds: int
    n_atoms: int
    seed: int = 0
    max_attempts: int = 32
    edge_density: float = 0.3

    def __post_init__(self):
        if self.n_worlds < 1:
            raise ValueError("n_worlds must be >= 1")
        if self.n_atoms < 0:
            raise ValueError("n_atoms must be >= 0")
        if not 0.0 <= self.edge_density <= 1.0:
            raise ValueError("edge_density must be in [0, 1]")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")


def atom_names(a: int) -> list[str]:
    if a <= len(_ATOM_POOL):
        return list(_ATOM_POOL[:a])
    return list(_ATOM_POOL) + [f"p{i}" for i in range(a - len(_ATOM_POOL))]


# ---------------------------------------------------------------------------
# Exhaustive enumeration

@lru_cache(maxsize=None)
def enumerate_preorders(n: int) -> tuple[tuple[int, ...], ...]:
    """All reflexive-transitive relations on ``range(n)`` as up-mask tuples."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for bits in range(1 << len(pairs)):
        up = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                up[i] |= 1 << j
        if all(image(up, u) == u for u in up):
            out.append(tuple(up))
    return tuple(out)


def upward_closed_masks(up: Sequence[int]) -> list[int]:
    """All P-upward-closed world sets of a closed preorder."""
    return [mask for mask in range(1 << len(up)) if not (image(up, mask) & ~mask)]


def frame_conditions_hold(up: Sequence[int], succ: Sequence[int]) -> bool:
    """C1 and C2 for a closed preorder and serial transition masks."""
    return next(frame_violations(up, succ), None) is None


def _transitions(up: Sequence[int], down: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every serial ``succ`` satisfying C1 and C2 over the closed preorder
    ``up`` (with ``down`` its inverse), in ``product`` order.

    Worlds are assigned in index order, each ``succ[k]`` counting up from
    1, so the tuples come out as ``product(range(1, 2**n), repeat=n)``
    filtered.  A partial assignment is dropped as soon as a check it
    decides fails: C2 at a pair ``x P z`` once both are assigned, C1 at
    ``x`` once all of ``up[x]`` is.
    """
    n = len(up)
    full = (1 << n) - 1
    # the checks decided by assigning world k: C2 pairs whose later world
    # is k (x P x holds trivially), and C1 at worlds whose up-set ends at k
    c2_at = [
        [(x, z) for x in range(k + 1) for z in iter_bits(up[x]) if max(x, z) == k and x != z]
        for k in range(n)
    ]
    c1_at = [[x for x in range(n) if up[x].bit_length() - 1 == k] for k in range(n)]
    succ = [0] * n
    k = 0
    while k >= 0:
        if k == n:
            yield tuple(succ)
            k -= 1
        elif succ[k] == full:  # every choice for world k tried: back up
            succ[k] = 0
            k -= 1
        else:
            succ[k] += 1
            for x, z in c2_at[k]:
                if not c2_holds(down, succ, x, z):
                    break
            else:
                for x in c1_at[k]:
                    if not c1_holds(up, succ, x):
                        break
                else:
                    k += 1


def enumerate_frames(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (preorder, serial transitions) pairs satisfying C1 and C2.

    Preorders come in :func:`enumerate_preorders` order and, within one,
    transition tuples in ``product`` order; each preorder's transitions
    are assigned world by world, pruning a partial assignment at its first
    failed C1 or C2 check, so the candidates a brute-force filter would
    test are never built.  ``n = 0`` gives the one empty frame.
    """
    for up in enumerate_preorders(n):
        for succ in _transitions(up, _transpose(up)):
            yield up, succ


Batch = tuple[BirelationalModel, list[tuple[int, ...]]]


def frame_batches(n: int, a: int) -> Iterator[Batch]:
    """Every valid frame with ``n`` worlds, paired with its valuations of
    ``a`` atoms, deterministically.

    A valuation is a tuple of upward-closed masks, one per
    :func:`atom_names` slot.  A frame with more than
    :data:`~ictl.syntax.MAX_BATCH` valuations comes as several
    consecutive batches that carry the same frame object.

    Each preorder's world index, ``down`` masks, upward-closed masks and,
    when they fit in one batch, valuations are built once and shared by
    all of its frames, which add only their ``succ`` and ``pred`` (see
    :meth:`~ictl.model.BirelationalModel.with_transitions`).  Larger
    valuation lists are streamed again for each frame, so memory stays
    bounded by the batch size.
    """
    worlds = tuple(f"w{i}" for i in range(n))
    base = None
    for up, succ in enumerate_frames(n):
        if base is None or up is not base.up:  # the first frame of a preorder
            base = BirelationalModel(worlds, up, (0,) * n, {})
            ups = upward_closed_masks(up)
            shared = list(product(ups, repeat=a)) if len(ups) ** a <= MAX_BATCH else None
        frame = base.with_transitions(succ)
        if shared is not None:
            yield frame, shared
            continue
        assignments = product(ups, repeat=a)
        while batch := list(islice(assignments, MAX_BATCH)):
            yield frame, batch


def _models(batches: Iterable[Batch], a: int) -> Iterator[BirelationalModel]:
    names = atom_names(a)
    for frame, batch in batches:
        for assignment in batch:
            yield frame.with_valuation(dict(zip(names, assignment)))


def enumerate_models(n: int, a: int) -> Iterator[BirelationalModel]:
    """Every valid model with ``n`` worlds and ``a`` atoms, deterministically:
    the :func:`frame_batches` one valuation at a time.

    Worlds are named ``w0 .. w{n-1}``; atoms come from :func:`atom_names`.
    The models of one frame share its masks (see
    :meth:`~ictl.model.BirelationalModel.with_valuation`).
    """
    yield from _models(frame_batches(n, a), a)


# ---------------------------------------------------------------------------
# Random generation

def _repair_transitions(up: Sequence[int], succ: list[int]) -> list[int]:
    # Adding R-edges only: for a C2 breach (x,y,z) add z->y (y P y discharges
    # it); for a C1 breach add x->z (x P x).  Each addition may create new
    # obligations, but the complete relation satisfies both conditions, so
    # the loop terminates.
    while True:
        v = next(frame_violations(up, succ), None)
        if v is None:
            return succ
        rule, x, y, z = v
        if rule == "C2":
            succ[z] |= 1 << y
        else:
            succ[x] |= 1 << z


def random_model(params: GenParams) -> BirelationalModel:
    """Sample a valid model; identical params (and seed) give identical output."""
    rng = random.Random(params.seed)
    n = params.n_worlds
    worlds = tuple(f"w{i}" for i in range(n))
    names = atom_names(params.n_atoms)
    for _ in range(params.max_attempts):
        order = list(range(n))
        rng.shuffle(order)
        edges = [
            (order[i], order[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < params.edge_density
        ]
        up = _close_masks(n, edges)
        succ = []
        for _i in range(n):
            mask = 0
            for j in range(n):
                if rng.random() < params.edge_density:
                    mask |= 1 << j
            if not mask:
                mask = 1 << rng.randrange(n)
            succ.append(mask)
        if frame_conditions_hold(up, succ):
            break
    else:  # every attempt broke C1 or C2: repair the last one
        succ = _repair_transitions(up, list(succ))
    val: dict[str, int] = {}
    for atom in names:
        base = 0
        for i in range(n):
            if rng.random() < 0.5:
                base |= 1 << i
        val[atom] = image(up, base)
    return BirelationalModel(worlds, tuple(up), tuple(succ), val)


def model_batches(
    max_worlds: int, atoms: int, samples: int = 0, seed: int = 0
) -> Iterator[Batch]:
    """The :func:`frame_batches` of every world count up to ``max_worlds``,
    then ``samples`` random models, each a batch of one: the ``k``-th has
    ``max_worlds + 1 + k % 3`` worlds and its seed drawn from
    ``random.Random(seed)``."""
    for n in range(1, max_worlds + 1):
        yield from frame_batches(n, atoms)
    names = atom_names(atoms)
    rng = random.Random(seed)
    for k in range(samples):
        m = random_model(
            GenParams(n_worlds=max_worlds + 1 + k % 3, n_atoms=atoms, seed=rng.getrandbits(63))
        )
        yield m, [tuple(m.val[x] for x in names)]


def model_stream(
    max_worlds: int, atoms: int, samples: int = 0, seed: int = 0
) -> Iterator[BirelationalModel]:
    """The :func:`model_batches` one model at a time: every valid model with
    up to ``max_worlds`` worlds, then ``samples`` random models."""
    yield from _models(model_batches(max_worlds, atoms, samples, seed), atoms)


# ---------------------------------------------------------------------------
# Product construction

def product_frame(
    stages: Sequence[str],
    stage_order: Iterable[tuple[str, str]],
    states: Sequence[str],
    state_transitions: Iterable[tuple[str, str]],
    valuation: dict[tuple[str, str], Iterable[str]],
) -> BirelationalModel:
    """Product of a stage poset with a serial transition graph.

    Worlds are pairs ``{stage}.{state}``; (k, s) P (k', s') iff k <= k'
    and s = s'; (k, s) R (k', s') iff k = k' and s -> s'.  Both
    commutation conditions hold by construction.  The valuation must be
    monotone along the stage order for each fixed state.
    """
    k_index = {k: i for i, k in enumerate(stages)}
    s_index = {s: i for i, s in enumerate(states)}
    nk, ns = len(stages), len(states)
    k_up = _close_masks(nk, [(k_index[a], k_index[b]) for a, b in stage_order])
    s_succ = [0] * ns
    for a, b in state_transitions:
        s_succ[s_index[a]] |= 1 << s_index[b]
    for s in states:
        if not s_succ[s_index[s]]:
            raise ValueError(f"state {s!r} has no transition; the graph must be serial")

    atoms_at: dict[tuple[int, int], set[str]] = {}
    for (k, s), atoms in valuation.items():
        atoms_at[(k_index[k], s_index[s])] = set(atoms)
    for ki in range(nk):
        for kj in iter_bits(k_up[ki]):
            for si in range(ns):
                lower = atoms_at.get((ki, si), set())
                upper = atoms_at.get((kj, si), set())
                if not lower <= upper:
                    raise ValueError(
                        f"valuation not monotone: {sorted(lower - upper)} true at "
                        f"({stages[ki]}, {states[si]}) but not at ({stages[kj]}, {states[si]})"
                    )

    def widx(ki: int, si: int) -> int:
        return ki * ns + si

    worlds = tuple(f"{k}.{s}" for k in stages for s in states)
    up = [0] * (nk * ns)
    succ = [0] * (nk * ns)
    val: dict[str, int] = {}
    for ki in range(nk):
        for si in range(ns):
            w = widx(ki, si)
            for kj in iter_bits(k_up[ki]):
                up[w] |= 1 << widx(kj, si)
            for sj in iter_bits(s_succ[si]):
                succ[w] |= 1 << widx(ki, sj)
            for atom in atoms_at.get((ki, si), ()):
                val[atom] = val.get(atom, 0) | (1 << w)
    return BirelationalModel(worlds, tuple(up), tuple(succ), val)


# ---------------------------------------------------------------------------
# Countermodel search

@dataclass
class SearchResult:
    outcome: str  # "countermodel" | "exhausted" | "budget_exceeded"
    model: BirelationalModel | None = None
    world: str | None = None
    models_checked: int = 0
    bounds: dict = field(default_factory=dict)

    @property
    def found(self) -> bool:
        return self.outcome == "countermodel"


def _search_atoms(atoms: Iterable[str], a: int) -> dict[str, str]:
    """Each search atom with the generators' atom (an :func:`atom_names`
    slot) that stands for it.

    The search atoms are ``atoms`` sorted, padded to ``a`` from
    ``atom_names(a)``.  An atom that names a slot keeps it, so formulas
    over the generators' own atoms see the models unrenamed; the others
    take the free slots in order.
    """
    names = sorted(atoms)
    for extra in atom_names(a):
        if len(names) >= a:
            break
        if extra not in names:
            names.append(extra)
    slots = atom_names(len(names))
    free = iter([s for s in slots if s not in names])
    return {x: x if x in slots else next(free) for x in names}


def find_countermodel(
    f: Formula,
    max_worlds: int = 3,
    atoms: int = 2,
    budget: int = 0,
    seed: int = 0,
) -> SearchResult:
    """Search for a model and world where ``f`` fails.

    Scans the :func:`model_stream`: every valid model up to ``max_worlds``
    worlds (complete, so the ``exhausted`` outcome is a proof of validity
    within the bounds), then up to ``budget`` random models of larger
    sizes.  ``f`` is compiled once, with its atoms bound to the
    generators' atom slots, and evaluated one :func:`model_batches` batch
    at a time with the engine rules bound when the search starts and a
    memo per frame; only a hit is built into a model, renamed to ``f``'s
    atoms, and ``models_checked`` is its position in the
    :func:`model_stream`.  Hits are verified with the path oracle; a
    verdict mismatch raises :class:`EngineDisagreementError` rather than
    returning a bogus model.
    """
    program = compile_formulas([f])
    slots = _search_atoms(program.atom_slots, atoms)
    program = replace(program, atom_slots=[slots[a] for a in program.atom_slots])
    ops = operators()
    names = list(slots)
    generated = atom_names(len(names))
    bounds = {"max_worlds": max_worlds, "atoms": names, "budget": budget, "seed": seed}
    checked = 0
    frame = None
    for batch_frame, batch in model_batches(max_worlds, len(names), budget, seed):
        if batch_frame is not frame:
            frame, memo = batch_frame, {}
        columns = dict(zip(generated, zip(*batch)))
        top = run_frame(program, frame, columns, len(batch), ops, memo)[-1]
        if top.count(frame.full) < len(batch):
            i, mask = next((i, v) for i, v in enumerate(top) if v != frame.full)
            m = frame.with_valuation(dict(zip(generated, batch[i])))
            return _countermodel(f, m, mask, slots, checked + i + 1, bounds)
        checked += len(batch)
    outcome = "exhausted" if budget <= 0 else "budget_exceeded"
    return SearchResult(outcome, None, None, checked, bounds)


def _countermodel(
    f: Formula,
    m: BirelationalModel,
    mask: int,
    slots: dict[str, str],
    checked: int,
    bounds: dict,
) -> SearchResult:
    """The hit ``m`` renamed to ``f``'s atoms, once the oracle confirms it."""
    m = m.with_valuation({a: m.val[s] for a, s in slots.items()})
    world = m.worlds[next(iter_bits(m.full & ~mask))]
    if oracle_check(m, world, f, validate=False):
        raise EngineDisagreementError(
            f"engine refutes {f} at {world} of {m!r} but the oracle satisfies it"
        )
    return SearchResult("countermodel", m, world, checked, bounds)


# ---------------------------------------------------------------------------
# Formula generation

_UNARY_OPS = (ExistsNext, ForallNext)
_BINARY_OPS = (And, Or, Implies, ExistsUntil, ExistsRelease, ForallUntil, ForallRelease)


def random_formula(
    rng: random.Random,
    max_height: int,
    atoms: Sequence[str],
    allow_bottom: bool = True,
) -> Formula:
    """Random AST of height at most ``max_height`` (a lone leaf has height 1)."""
    leaves: list[Formula] = [Atom(a) for a in atoms]
    if allow_bottom:
        leaves.append(BOTTOM)

    def go(h: int) -> Formula:
        if h <= 1 or rng.random() < 0.25:
            return rng.choice(leaves)
        op = rng.choice(_UNARY_OPS + _BINARY_OPS)
        if op in _UNARY_OPS:
            return op(go(h - 1))
        return op(go(h - 1), go(h - 1))

    return go(max_height)


def enumerate_formulas(
    max_height: int, atoms: Sequence[str], include_bottom: bool = False
) -> list[Formula]:
    """All distinct formulas up to ``max_height``, children before parents."""
    leaves: list[Formula] = [Atom(a) for a in atoms]
    if include_bottom:
        leaves.append(BOTTOM)
    cumulative: list[Formula] = list(leaves)
    exact: list[Formula] = list(leaves)
    for _h in range(2, max_height + 1):
        prev_cumulative = list(cumulative)
        new: list[Formula] = []
        for op in _UNARY_OPS:
            new.extend(op(f) for f in exact)
        for op in _BINARY_OPS:
            new.extend(op(l, r) for l in exact for r in prev_cumulative)
            older = prev_cumulative[: len(prev_cumulative) - len(exact)]
            new.extend(op(l, r) for l in older for r in exact)
        cumulative.extend(new)
        exact = new
    return cumulative
