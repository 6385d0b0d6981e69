"""Model generators and bounded countermodel search.

Three ways to produce valid models:

* :func:`enumerate_models` streams every valid model with ``n`` worlds,
  in a fixed deterministic order (preorder, then transition relation,
  then valuation);
* :func:`random_model` samples one: random DAG closed to a preorder,
  serial transitions at a target density, rejection plus edge-adding
  repair for the commutation conditions, valuation sampled upward-closed;
* :func:`product_frame` builds one from a stage order and a transition
  graph, and rejects it, naming the rule, when the graph is not serial or
  the valuation not monotone (C1 and C2 hold on every product).

:func:`enumerate_frames` assigns each preorder's transitions world by
world and drops a partial assignment at the first C1 or C2 check it
decides (:func:`~ictl.model.c1_holds`, :func:`~ictl.model.c2_holds`), so
it yields a brute-force filter's frames in the same order without
building the rejected candidates; every frame with 4 worlds is within
reach.

Every exhaustive stream is one sweep, :func:`_sweep`, over the world
counts it is given: for each, every preorder's valid frames, each with
its valuations as tuples of masks in batches of at most
:data:`~ictl.syntax.MAX_BATCH`, then seeded random models as batches of
one.  Each batch carries its *position*, the index of its first model in
the labelled stream, and the sweep ends with the stream's length and no
frame.  :func:`model_stream` flattens it for a ``range`` of world counts,
one model at a time; :func:`enumerate_models` is its range of one world
count, and ``ictl compare`` scans it from one world up.

:func:`find_countermodel` looks for a model and world refuting a formula,
double-checking any hit against the path oracle before returning it.  It
compiles the formula once into a :class:`~ictl.syntax.Program` and
evaluates each batch of the sweep in one :func:`~ictl.syntax.run_frame`
call, with the batch's columns keyed by the formula's own atoms, the
engine's rules read once per search, and one operator memo per frame.
Only a hit is built into a model, over the formula's atoms.

The search sweeps one frame per isomorphism class, after McKay
("Isomorph-free exhaustive generation", J. Algorithms 1998): the
*leader*, the first frame of its class in :func:`enumerate_frames` order,
at its labelled position.  A frame is a leader iff its preorder comes
first in its class in :func:`enumerate_preorders` order and its ``succ``
tuple is the least, in ``product`` order, of its images under that
preorder's automorphisms; with the identity as the only renaming every
frame passes, which is the labelled sweep.  The other frames' valuations
are counted unevaluated, and the frames of a preorder that is not first
in its class are not even enumerated.  This relies on every engine rule
commuting with renaming worlds, which holds for rules that read only the
frame's relations: a frame then holds a countermodel iff every frame of
its class does, so the first frame of the labelled stream that holds one
is a leader, and the first hit, its position in the stream, its world and
its model are those of a scan of every frame.  ``ictl compare`` keeps the
labelled sweep, because it compares the engine and the oracle on every
labelled model, and a model skipped as the image of another is a
comparison not made.

A preorder's leaders depend on nothing but the preorder, so each is
found once per process: the first leader stream over a class-first
preorder of at most three worlds that runs to its end records, in
:data:`_LEADERS`, the preorder's frame count and each leader's ``succ``
with its index among the preorder's frames, and later leader sweeps
replay that record without :func:`_transitions` or the automorphism
test.  This pays only where one process runs several searches, as a
library caller proving a list of formulas does; a process that runs one
search, as the ``ictl`` command does, visits each preorder once and
reads no record.  A stream stopped early, as a search stops at its hit,
records nothing; the labelled sweep neither reads nor writes the record.
All of n <= 3 is 648 leaders.  Four-world preorders stream afresh every
time: they have 89,977 leaders, about 14 MiB, which a single 4-world
search would build and never read.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice, permutations, product
from typing import Iterable, Iterator, Sequence

from .checker import operators
from .model import (
    BirelationalModel,
    _close_masks,
    _permuted,
    _transpose,
    build_model,
    c1_holds,
    c2_holds,
    frame_violations,
    image,
    iter_bits,
    validate_frame,
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
    "enumerate_models",
    "random_model",
    "model_stream",
    "product_frame",
    "find_countermodel",
    "random_formula",
    "enumerate_formulas",
]

_ATOM_POOL = "pqrstuvabcdefgh"


class EngineDisagreementError(AssertionError):
    """The engine refutes a formula at ``world`` of ``model``; the oracle satisfies it."""

    def __init__(self, message: str, model: BirelationalModel, world: str):
        super().__init__(message)
        self.model, self.world = model, world


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
    if a < 0:
        raise ValueError("a must be >= 0")
    if a <= len(_ATOM_POOL):
        return list(_ATOM_POOL[:a])
    return list(_ATOM_POOL) + [f"p{i}" for i in range(a - len(_ATOM_POOL))]


# ---------------------------------------------------------------------------
# Exhaustive enumeration

@lru_cache(maxsize=None)
def enumerate_preorders(n: int) -> tuple[tuple[int, ...], ...]:
    """All reflexive-transitive relations on ``range(n)`` as up-mask tuples."""
    if n < 0:  # raised, so never cached
        raise ValueError("n must be >= 0")
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


def enumerate_models(n: int, a: int) -> Iterator[BirelationalModel]:
    """Every valid model with ``n`` worlds and ``a`` atoms, deterministically:
    the :func:`model_stream` of ``range(n, n + 1)``, none for ``n < 1``.

    Worlds are named ``w0 .. w{n-1}``; atoms come from :func:`atom_names`.
    The models of one frame share its masks (see
    :meth:`~ictl.model.BirelationalModel.with_valuation`).
    """
    yield from model_stream(range(max(n, 1), n + 1), a)


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


_RECORDED_WORLDS = 3  # the most worlds of a preorder whose leaders are recorded
# a recorded preorder's frame count and (k, succ) per leader: see _leader_succs
_LEADERS: dict[tuple[int, ...], tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]] = {}


def _leader_succs(
    up: tuple[int, ...], down: Sequence[int], automorphisms: Sequence[Sequence[int]]
) -> Iterator[tuple[int, tuple[int, ...] | None]]:
    """``(k, succ)`` for each leader frame of the class-first preorder
    ``up``, ``k`` being its index in :func:`_transitions` order, then
    ``(frames, None)`` with the preorder's frame count.

    A leader is a ``succ`` no image under ``automorphisms`` comes before.
    A preorder in :data:`_LEADERS` is replayed from there, without
    :func:`_transitions` or the automorphism test.  Otherwise the frames
    stream as they are found, and a preorder of at most
    :data:`_RECORDED_WORLDS` worlds is recorded only once its stream is
    exhausted, so a stream closed early records nothing.
    """
    if up in _LEADERS:
        frames, found = _LEADERS[up]
        yield from found
        yield frames, None
        return
    record = [] if len(up) <= _RECORDED_WORLDS else None
    frames = 0
    for frames, succ in enumerate(_transitions(up, down), 1):
        if any(_permuted(succ, perm) < succ for perm in automorphisms):
            continue  # an image under an automorphism comes first
        if record is not None:
            record.append((frames - 1, succ))
        yield frames - 1, succ
    if record is not None:
        _LEADERS[up] = frames, tuple(record)
    yield frames, None


def _sweep(
    worlds: range, a: int, samples: int, seed: int, leaders: bool = False
) -> Iterator[tuple[int, BirelationalModel | None, list[tuple[int, ...]]]]:
    """``(position, frame, valuations)`` per batch of the labelled stream of
    the world counts in ``worlds``, ``position`` being the index of the
    batch's first model from the first of ``worlds.start`` worlds, then
    ``(total, None, [])``; with ``leaders``, only the leader frames'
    batches (see the module docstring).

    The ``k``-th of the ``samples`` random models has
    ``worlds.stop + k % 3`` worlds and its seed drawn from
    ``random.Random(seed)``.  Frames stream from :func:`_transitions`; a
    preorder's world index, ``down`` masks and, when they fit in one batch,
    valuations are built once and shared by all of its frames; larger
    valuation lists are streamed again for each frame, so memory stays
    bounded by the batch size.  With ``leaders``, a class-first
    preorder's leaders come from :func:`_leader_succs`, which replays the
    record an earlier exhausted leader stream left in :data:`_LEADERS`.
    """
    position = 0
    for n in worlds:
        labels = tuple(f"w{i}" for i in range(n))
        index = {w: i for i, w in enumerate(labels)}
        perms = list(permutations(range(n)))[1:] if leaders else []  # all but the identity
        models: dict[tuple[int, ...], int] = {}  # a class's least preorder: its model count
        for up in enumerate_preorders(n):
            images = {perm: _permuted(up, perm) for perm in perms}
            least = min([up, *images.values()])
            if least not in models:  # the first preorder of its class
                automorphisms = [perm for perm, image in images.items() if image == up]
                ups = upward_closed_masks(up)
                size = len(ups) ** a  # valuations per frame
                down = _transpose(up)
                shared = list(product(ups, repeat=a)) if size <= MAX_BATCH else None
                if leaders:
                    succs = _leader_succs(up, down, automorphisms)
                else:
                    succs = enumerate(_transitions(up, down))
                frames = 0
                for k, succ in succs:
                    if succ is None:  # a leader stream ends on the preorder's frame count
                        frames = k
                        break
                    frames = k + 1
                    offset = position + k * size
                    frame = BirelationalModel(labels, up, succ, {}, index=index, down=down)
                    if shared is not None:
                        yield offset, frame, shared
                        continue
                    assignments = product(ups, repeat=a)
                    while batch := list(islice(assignments, MAX_BATCH)):
                        yield offset, frame, batch
                        offset += len(batch)
                models[least] = frames * size
            position += models[least]
    rng = random.Random(seed)
    names = atom_names(a)
    for k in range(samples):
        m = random_model(
            GenParams(n_worlds=worlds.stop + k % 3, n_atoms=a, seed=rng.getrandbits(63))
        )
        yield position + k, m, [tuple(m.val[x] for x in names)]
    yield position + samples, None, []


def model_stream(
    worlds: range, atoms: int, samples: int = 0, seed: int = 0
) -> Iterator[BirelationalModel]:
    """Every valid model of each world count in ``worlds``, then ``samples``
    random ones of ``worlds.stop`` worlds and up: :func:`_sweep`, flattened."""
    names = atom_names(atoms)
    for _, frame, batch in _sweep(worlds, atoms, samples, seed):
        for assignment in batch:
            yield frame.with_valuation(dict(zip(names, assignment)))


# ---------------------------------------------------------------------------
# Product construction

def product_frame(
    stages: Sequence[str],
    stage_order: Iterable[tuple[str, str]],
    states: Sequence[str],
    state_transitions: Iterable[tuple[str, str]],
    valuation: dict[tuple[str, str], Iterable[str]],
) -> BirelationalModel:
    """Product of a stage order with a transition graph, validated.

    Worlds are pairs ``{stage}.{state}``; (k, s) P (k', s') iff k <= k'
    in the closure of ``stage_order`` and s = s'; (k, s) R (k', s') iff
    k = k' and s -> s'.  C1 and C2 hold on every product, so of the rules
    of :func:`~ictl.model.validate_frame` only ``serial`` (a state with no
    transition) and ``monotone-valuation`` can fail, ``serial`` first;
    the ``ValueError`` names the rule of the first breach.  A product with
    no worlds, or with two ``{stage}.{state}`` names alike, is refused first.
    """
    worlds = [f"{k}.{s}" for k in stages for s in states]
    if len(set(worlds)) < len(worlds) or not worlds:
        twice = [w for w in worlds if worlds.count(w) > 1]
        raise ValueError(f"duplicate world {twice[0]!r}" if twice else "the product has no worlds")
    m = build_model(
        worlds,
        [(f"{a}.{s}", f"{b}.{s}") for a, b in stage_order for s in states],
        [(f"{k}.{a}", f"{k}.{b}") for a, b in state_transitions for k in stages],
        {f"{k}.{s}": atoms for (k, s), atoms in valuation.items()},
    )
    for v in validate_frame(m, max_witnesses=1).violations:
        raise ValueError(f"{v.rule}: {v.message}")
    return m


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


def _search_atoms(atoms: Iterable[str], a: int) -> dict[str, int]:
    """Each search atom with the index of the :func:`atom_names` slot that
    stands for it: its place in each valuation of the sweep.

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
    free = iter([j for j, s in enumerate(slots) if s not in names])
    return {x: slots.index(x) if x in slots else next(free) for x in names}


def find_countermodel(
    f: Formula,
    max_worlds: int = 3,
    atoms: int = 2,
    budget: int = 0,
    seed: int = 0,
) -> SearchResult:
    """Search for a model and world where ``f`` fails.

    Sweeps the leader :func:`_sweep`: every valid model up to
    ``max_worlds`` worlds (complete, so the ``exhausted`` outcome is a
    proof of validity within the bounds), then up to ``budget`` random
    models of larger sizes.  ``f`` is compiled once, and each batch is
    evaluated in one :func:`~ictl.syntax.run_frame` call, with the engine
    rules bound when the search starts and a memo per frame.  The batch's
    columns are keyed by ``f``'s own atoms: ``columns[a]`` is the column
    of the slot that :func:`_search_atoms` gives ``a``.  Only a hit is
    built into a model, directly over ``f``'s atoms, so it is never
    renamed; ``models_checked`` is its position in the stream plus one, or
    the sweep's total when there is none.  Hits are verified with the path
    oracle; a verdict mismatch raises :class:`EngineDisagreementError`
    rather than returning a bogus model.

    The exhaustive part runs the engine only on the leader frames (see
    :func:`_sweep` and the module docstring); every other frame's
    valuations are counted unevaluated.  As long as every rule commutes
    with renaming worlds, the first hit, its position, world and model are
    those of a scan of every frame.
    """
    program = compile_formulas([f])
    place = _search_atoms(program.atom_slots, atoms)
    ops = operators()
    bounds = {"max_worlds": max_worlds, "atoms": list(place), "budget": budget, "seed": seed}
    frame = column_batch = None
    sweep = _sweep(range(1, max_worlds + 1), len(place), budget, seed, leaders=True)
    for position, batch_frame, batch in sweep:
        if not batch:  # the end: position is the stream's length
            break
        if batch_frame is not frame:
            frame, memo = batch_frame, {}
        if batch is not column_batch:  # the frames of one preorder share their batch
            column_batch, by_slot = batch, list(zip(*batch))
            columns = {a: by_slot[j] for a, j in place.items()}
        top = run_frame(program, frame, columns, len(batch), ops, memo)[-1]
        if top.count(frame.full) < len(batch):
            i, mask = next((i, v) for i, v in enumerate(top) if v != frame.full)
            m = frame.with_valuation({a: batch[i][j] for a, j in place.items()})
            return _countermodel(f, m, mask, position + i + 1, bounds)
    outcome = "exhausted" if budget <= 0 else "budget_exceeded"
    return SearchResult(outcome, None, None, position, bounds)


def _countermodel(
    f: Formula, m: BirelationalModel, mask: int, checked: int, bounds: dict
) -> SearchResult:
    """The hit ``m``, refuting ``f`` outside ``mask``, once the oracle confirms it."""
    world = m.worlds[next(iter_bits(m.full & ~mask))]
    if oracle_check(m, world, f, validate=False):
        raise EngineDisagreementError(
            f"engine refutes {f} at {world} of {m!r} but the oracle satisfies it", m, world
        )
    return SearchResult("countermodel", m, world, checked, bounds)


# ---------------------------------------------------------------------------
# Formula generation

_UNARY_OPS = (ExistsNext, ForallNext)
_BINARY_OPS = (And, Or, Implies, ExistsUntil, ExistsRelease, ForallUntil, ForallRelease)


def random_formula(rng: random.Random, max_height: int, atoms: Sequence[str]) -> Formula:
    """Random AST of height at most ``max_height`` (a lone leaf has height 1)
    over the leaves ``atoms`` and ``false``."""
    leaves: list[Formula] = [*map(Atom, atoms), BOTTOM]

    def go(h: int) -> Formula:
        if h <= 1 or rng.random() < 0.25:
            return rng.choice(leaves)
        op = rng.choice(_UNARY_OPS + _BINARY_OPS)
        if op in _UNARY_OPS:
            return op(go(h - 1))
        return op(go(h - 1), go(h - 1))

    return go(max_height)


def enumerate_formulas(max_height: int, atoms: Sequence[str]) -> list[Formula]:
    """All distinct formulas up to ``max_height`` over the leaves ``atoms``,
    children before parents."""
    leaves: list[Formula] = [Atom(a) for a in atoms]
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
