"""Finite birelational models: two relations over one world set.

A model carries a preorder P (stored reflexively and transitively closed),
a serial transition relation R, and a valuation that must be monotone
along P.  Frames must additionally satisfy the two commutation conditions

    C1: x R y and y P z  implies  some u with x P u and u R z
    C2: x P z and x R y  implies  some u with y P u and z R u

World sets are plain ``int`` bitmasks over the world indices; relations
are tuples of per-world bitmasks.  ``up[i]`` holds the worlds P-above
world ``i`` (including ``i``), ``down[i]`` the worlds P-below it,
``succ[i]`` its R-successors and ``pred[i]`` its R-predecessors.
:meth:`BirelationalModel.with_valuation` puts another valuation on the
same frame, sharing all of its masks; ``pred``, ``index`` and ``down``
may be handed to the constructor ready-made, to share them across frames.

Every quantifier over a relation is one :func:`image`, the union of
``rel[j]`` over the worlds ``j`` of a set, which costs the set's bits,
not the world count.  The set operators are images over the stored
inverse relations, or their duals:

    pre_exists(X)  = image(pred, X)
    pre_forall(X)  = ~image(pred, ~X)
    up_interior(X) = ~image(down, ~X)

(complements taken within the world set).

Ingest is one pass each.  :func:`load_model` checks a well-formed document
a whole list at a time (each distinct atom name is matched once) and
walks entry by entry only to name the first bad entry; the preorder is
closed in one depth-first pass over its strongly connected components;
and :func:`validate_frame` decides transitivity, monotonicity and C3
with one mask test per world or atom, enumerating witnesses only for the
worlds and atoms that fail.

:func:`frame_violations` is the one C1/C2 check that reports witnesses:
:func:`validate_frame` reports what it yields, and the random generator
stops at its first breach.  :func:`c1_holds` (C1 at one world) and
:func:`c2_holds` (C2 at one ``P`` pair) are the same conditions as mask
predicates, each reading the transitions of only a few worlds, so the
exhaustive enumerator can test a partial assignment; the tests pin them
to :func:`frame_violations` on every small frame.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .syntax import ATOM_RE

__all__ = [
    "ModelFormatError",
    "InvalidModelError",
    "RawModel",
    "load_model",
    "BirelationalModel",
    "build_model",
    "model_from_raw",
    "model_to_document",
    "with_identity_preorder",
    "Violation",
    "ValidationReport",
    "frame_violations",
    "c1_holds",
    "c2_holds",
    "validate_frame",
    "ensure_valid",
    "up_interior",
    "pre_exists",
    "pre_forall",
    "complement",
    "is_upward_closed",
    "image",
    "iter_bits",
]


class ModelFormatError(ValueError):
    """The model document violates the expected schema."""


class InvalidModelError(ValueError):
    """The model breaks a frame or valuation invariant."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        lines = "; ".join(v.message for v in report.violations[:3])
        more = "" if len(report.violations) <= 3 else f" (+{len(report.violations) - 3} more)"
        super().__init__(f"invalid model: {lines}{more}")


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def image(rel: Sequence[int], mask: int) -> int:
    """Union of ``rel[j]`` over the set bits ``j`` of ``mask``.

    The bits are taken highest first: clearing the top bit shrinks the
    mask, so each step costs the width of what is left of it."""
    out = 0
    while mask:
        j = mask.bit_length() - 1
        out |= rel[j]
        mask ^= 1 << j
    return out


def _transpose(rel: Sequence[int]) -> tuple[int, ...]:
    """``out[j]``: the worlds ``i`` with ``j`` in ``rel[i]``."""
    out = [0] * len(rel)
    for i, s in enumerate(rel):
        bit = 1 << i
        while s:
            j = s.bit_length() - 1
            out[j] |= bit
            s ^= 1 << j
    return tuple(out)


# ---------------------------------------------------------------------------
# Loading

_DOC_KEYS = {"worlds", "preorder", "transitions", "valuation"}


@dataclass
class RawModel:
    """Parsed model document before closure and validation."""

    worlds: list[str]
    preorder: list[tuple[str, str]]
    transitions: list[tuple[str, str]]
    valuation: dict[str, set[str]]


def _exactly(values: Iterable, cls: type) -> bool:
    """Whether every value's type is exactly ``cls``, in one C-level pass."""
    return set(map(type, values)) <= {cls}


# The two checks below pass a well-formed list a whole list at a time.
# Where one fails, a loop over the entries names the first bad one, or
# accepts subclasses of ``list`` and ``str``, which they reject.

def _edges_ok(raw: list, known: set[str]) -> bool:
    """Whether every entry is a list of two known world names."""
    if not (_exactly(raw, list) and set(map(len, raw)) <= {2}):
        return False
    ends = list(chain.from_iterable(raw))
    return _exactly(ends, str) and known.issuperset(ends)


def _valuation_ok(raw_val: dict, known: set[str]) -> bool:
    """Whether every entry maps a known world to a list of valid atom names;
    each distinct name is matched once."""
    if not (known.issuperset(raw_val) and _exactly(raw_val.values(), list)):
        return False
    names = list(chain.from_iterable(raw_val.values()))
    return _exactly(names, str) and all(map(ATOM_RE.match, set(names)))


def _edge_list(doc: dict, key: str, known: set[str]) -> list[tuple[str, str]]:
    raw = doc.get(key, [])
    if not isinstance(raw, list):
        raise ModelFormatError(f"{key!r} must be a list of [from, to] pairs")
    if not _edges_ok(raw, known):
        for entry in raw:
            if not (isinstance(entry, list) and len(entry) == 2 and all(isinstance(x, str) for x in entry)):
                raise ModelFormatError(f"{key!r} entries must be [from, to] name pairs, got {entry!r}")
            for name in entry:
                if name not in known:
                    raise ModelFormatError(f"unknown world {name!r} in {key!r}")
    return list(map(tuple, raw))


def load_model(document: dict | str) -> RawModel:
    """Read a model document (dict or JSON text) without closing or validating."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as e:
            raise ModelFormatError(f"not valid JSON: {e}") from e
        except RecursionError as e:  # the decoder recurses once per level of nesting
            raise ModelFormatError(f"not valid JSON: nested too deeply ({e})") from e
    if not isinstance(document, dict):
        raise ModelFormatError("model document must be a JSON object")
    extra = set(document) - _DOC_KEYS
    if extra:
        raise ModelFormatError(f"unknown keys in model document: {sorted(extra)}")

    worlds = document.get("worlds")
    if not (isinstance(worlds, list) and worlds and all(isinstance(w, str) and w for w in worlds)):
        raise ModelFormatError("'worlds' must be a nonempty list of nonempty names")
    seen = set(worlds)
    if len(seen) < len(worlds):
        seen = set()
        for w in worlds:
            if w in seen:
                raise ModelFormatError(f"duplicate world name {w!r}")
            seen.add(w)

    preorder = _edge_list(document, "preorder", seen)
    transitions = _edge_list(document, "transitions", seen)

    raw_val = document.get("valuation", {})
    if not isinstance(raw_val, dict):
        raise ModelFormatError("'valuation' must map world names to atom lists")
    if not _valuation_ok(raw_val, seen):
        for w, atoms in raw_val.items():
            if w not in seen:
                raise ModelFormatError(f"unknown world {w!r} in 'valuation'")
            if not (isinstance(atoms, list) and all(isinstance(a, str) for a in atoms)):
                raise ModelFormatError(f"valuation of {w!r} must be a list of atom names")
            for a in atoms:
                if not ATOM_RE.match(a):
                    raise ModelFormatError(
                        f"invalid atom name {a!r} (want lowercase letter, then letters/digits/underscore)"
                    )
    valuation: dict[str, set[str]] = {w: set() for w in worlds}
    valuation.update(zip(raw_val, map(set, raw_val.values())))
    return RawModel(list(worlds), preorder, transitions, valuation)


# ---------------------------------------------------------------------------
# Construction

def _close_masks(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    """``up[i]``: the worlds reachable from ``i`` along ``edges``, ``i`` included.

    One pass: Tarjan's depth-first search (SIAM J. Comput. 1972) closes the
    strongly connected components in reverse topological order, so when a
    component closes, every component it has an edge into is already
    closed and final, and its members share the union of their own bits
    and those ups.  A world without successors is final from the start and
    is never entered.
    """
    up = [1 << i for i in range(n)]
    succs: dict[int, list[int]] = {}
    for i, j in edges:
        up[i] |= 1 << j
        if i in succs:
            succs[i].append(j)
        else:
            succs[i] = [j]
    num: dict[int, int] = {}  # DFS number of an entered world; 0 once closed
    low: dict[int, int] = {}  # least DFS number it reaches among open worlds
    stack: list[int] = []  # entered worlds not yet closed, in DFS order
    for root in succs:
        if root in num:
            continue
        num[root] = low[root] = len(num) + 1
        stack.append(root)
        path = [(root, iter(succs[root]))]
        while path:
            v, todo = path[-1]
            for w in todo:
                if w not in succs:
                    continue  # up[w] is its own bit, already in up[v]
                k = num.get(w)
                if k is None:
                    num[w] = low[w] = len(num) + 1
                    stack.append(w)
                    path.append((w, iter(succs[w])))
                    break
                if not k:
                    up[v] |= up[w]
                elif k < low[v]:
                    low[v] = k
            else:
                path.pop()
                if low[v] == num[v]:  # v roots a component: close it
                    acc = up[v]
                    top = stack.pop()
                    if top != v:  # more than one world: v and those above it
                        i = len(stack) - 1
                        while stack[i] != v:
                            i -= 1
                        members = stack[i:] + [top]
                        del stack[i:]
                        for u in members:
                            acc |= up[u]
                        for u in members:
                            up[u] = acc
                            num[u] = 0
                    num[v] = 0
                    if path:
                        up[path[-1][0]] |= acc
                elif low[v] < low[path[-1][0]]:
                    low[path[-1][0]] = low[v]
    return up


class BirelationalModel:
    """Immutable model over dense world indices; see module docstring."""

    __slots__ = ("worlds", "index", "up", "down", "succ", "pred", "val", "atoms", "n", "full")

    def __init__(
        self,
        worlds: tuple[str, ...],
        up: tuple[int, ...],
        succ: tuple[int, ...],
        val: dict[str, int],
        pred: tuple[int, ...] | None = None,
        index: dict[str, int] | None = None,
        down: tuple[int, ...] | None = None,
    ):
        """``pred``, ``index`` and ``down``, when given, must be ``succ``
        transposed, the position of each world name and ``up`` transposed;
        otherwise they are computed."""
        self.worlds = worlds
        self.index = {w: i for i, w in enumerate(worlds)} if index is None else index
        self.up = up
        self.down = _transpose(up) if down is None else down
        self.succ = succ
        self.pred = _transpose(succ) if pred is None else pred
        self.val = val
        self.atoms = tuple(sorted(val))
        self.n = len(worlds)
        self.full = (1 << self.n) - 1

    def with_valuation(self, val: dict[str, int]) -> "BirelationalModel":
        """The same frame under valuation ``val``, sharing its names and masks."""
        return BirelationalModel(self.worlds, self.up, self.succ, val, self.pred, self.index, self.down)

    def world_index(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise KeyError(f"unknown world {name!r}") from None

    def names(self, mask: int) -> list[str]:
        return [self.worlds[i] for i in iter_bits(mask)]

    def atom_mask(self, atom: str) -> int:
        return self.val.get(atom, 0)

    def __repr__(self) -> str:
        return f"BirelationalModel(worlds={list(self.worlds)!r}, n={self.n})"


def build_model(
    worlds: Iterable[str],
    preorder: Iterable[tuple[str, str]],
    transitions: Iterable[tuple[str, str]],
    valuation: dict[str, Iterable[str]],
) -> BirelationalModel:
    """Assemble a model from name-level data, closing the preorder.

    No frame validation happens here; run :func:`validate_frame` on the
    result.
    """
    names = tuple(worlds)
    index = {w: i for i, w in enumerate(names)}
    n = len(names)
    up = _close_masks(n, [(index[a], index[b]) for a, b in preorder])
    succ = [0] * n
    pred = [0] * n
    for a, b in transitions:
        i, j = index[a], index[b]
        succ[i] |= 1 << j
        pred[j] |= 1 << i
    val: dict[str, int] = {}
    for w, atoms in valuation.items():
        i = index[w]
        for a in atoms:
            val[a] = val.get(a, 0) | (1 << i)
    return BirelationalModel(names, tuple(up), tuple(succ), val, tuple(pred), index)


def model_from_raw(raw: RawModel) -> BirelationalModel:
    return build_model(raw.worlds, raw.preorder, raw.transitions, raw.valuation)


def model_to_document(m: BirelationalModel) -> dict:
    """JSON-able document; emits the full closed preorder minus reflexive pairs."""
    preorder = [
        [m.worlds[i], m.worlds[j]]
        for i in range(m.n)
        for j in iter_bits(m.up[i] & ~(1 << i))
    ]
    transitions = [
        [m.worlds[i], m.worlds[j]] for i in range(m.n) for j in iter_bits(m.succ[i])
    ]
    valuation = {
        w: sorted(a for a in m.atoms if m.val[a] >> i & 1)
        for i, w in enumerate(m.worlds)
    }
    return {
        "worlds": list(m.worlds),
        "preorder": preorder,
        "transitions": transitions,
        "valuation": valuation,
    }


def with_identity_preorder(m: BirelationalModel) -> BirelationalModel:
    """Same transition graph and valuation, but P collapsed to equality."""
    return BirelationalModel(
        m.worlds, tuple(1 << i for i in range(m.n)), m.succ, dict(m.val)
    )


# ---------------------------------------------------------------------------
# Set operators

def up_interior(m: BirelationalModel, mask: int) -> int:
    """Worlds whose whole up-set lies inside ``mask``."""
    return m.full & ~image(m.down, m.full & ~mask)


def pre_exists(m: BirelationalModel, mask: int) -> int:
    """Worlds with at least one R-successor in ``mask``."""
    return image(m.pred, m.full & mask)


def pre_forall(m: BirelationalModel, mask: int) -> int:
    """Worlds all of whose R-successors lie in ``mask``."""
    return m.full & ~image(m.pred, m.full & ~mask)


def complement(m: BirelationalModel, mask: int) -> int:
    return m.full & ~mask


def is_upward_closed(m: BirelationalModel, mask: int) -> bool:
    return not (image(m.up, m.full & mask) & ~mask)


# ---------------------------------------------------------------------------
# Validation

@dataclass(frozen=True)
class Violation:
    rule: str  # reflexive | transitive | serial | C1 | C2 | monotone-valuation | C3
    witness: tuple[str, ...]
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    def rules(self) -> set[str]:
        return {v.rule for v in self.violations}


def frame_violations(
    up: Sequence[int], succ: Sequence[int]
) -> Iterator[tuple[str, int, int, int]]:
    """Every C1 and C2 breach ``(rule, x, y, z)`` of a closed preorder and
    transition masks: for each R-edge ``x R y`` (x, then y, ascending) its
    C1 breaches (z over the up-set of y), then its C2 breaches (z over the
    up-set of x).  The up-set of ``x`` is read off its mask once, and each
    ``(x, y)`` pair costs one mask test for C1 and one per ``z`` for C2."""
    for x in range(len(up)):
        ux = up[x]
        zs = []  # the worlds P-above x, ascending
        reach = 0  # the worlds z with some u, x P u and u R z
        while ux:
            low = ux & -ux
            ux ^= low
            z = low.bit_length() - 1
            zs.append(z)
            reach |= succ[z]
        ys = succ[x]
        while ys:
            low = ys & -ys
            ys ^= low
            y = low.bit_length() - 1
            uy = up[y]
            miss = uy & ~reach
            while miss:
                low = miss & -miss
                miss ^= low
                yield ("C1", x, y, low.bit_length() - 1)
            for z in zs:
                if not (succ[z] & uy):
                    yield ("C2", x, y, z)


def c1_holds(up: Sequence[int], succ: Sequence[int], x: int) -> bool:
    """C1 at world ``x``: every world P-above an R-successor of ``x`` is an
    R-successor of some world P-above ``x``, that is
    ``image(up, succ[x]) <= image(succ, up[x])``.  Reads ``succ`` only at
    ``x`` and ``up[x]``."""
    return not image(up, succ[x]) & ~image(succ, up[x])


def c2_holds(down: Sequence[int], succ: Sequence[int], x: int, z: int) -> bool:
    """C2 at a pair ``x P z``: each R-successor ``y`` of ``x`` is P-below some
    R-successor of ``z``, that is ``succ[x] <= image(down, succ[z])``.  Reads
    ``succ`` only at ``x`` and ``z``."""
    return not succ[x] & ~image(down, succ[z])


def validate_frame(
    m: BirelationalModel, check_c3: bool = False, max_witnesses: int = 10
) -> ValidationReport:
    """Check every frame and valuation invariant, reporting witnesses.

    At most ``max_witnesses`` violations are reported per rule; the report
    is empty iff the model is a valid birelational model (C3, an optional
    strengthening, is only checked when ``check_c3`` is set and never
    affects the semantics).
    """
    report = ValidationReport()
    counts: dict[str, int] = {}

    def emit(rule: str, witness: tuple[int, ...], message: str) -> None:
        c = counts.get(rule, 0)
        if c >= max_witnesses:
            report.truncated = True
            return
        counts[rule] = c + 1
        report.violations.append(
            Violation(rule, tuple(m.worlds[i] for i in witness), message)
        )

    W, up = m.worlds, m.up
    for i in range(m.n):
        if not (up[i] >> i & 1):
            emit("reflexive", (i,), f"preorder misses reflexive pair ({W[i]}, {W[i]})")
    for i in range(m.n):
        if not image(up, up[i]) & ~up[i]:
            continue
        for j in iter_bits(up[i]):
            missing = up[j] & ~up[i]
            for k in iter_bits(missing):
                emit(
                    "transitive",
                    (i, j, k),
                    f"preorder has ({W[i]}, {W[j]}) and ({W[j]}, {W[k]}) but not ({W[i]}, {W[k]})",
                )
    for i in range(m.n):
        if not m.succ[i]:
            emit("serial", (i,), f"world {W[i]} has no transition successor")

    for rule, x, y, z in frame_violations(up, m.succ):
        need = f"{W[x]} P u and u R {W[z]}" if rule == "C1" else f"{W[y]} P u and {W[z]} R u"
        emit(rule, (x, y, z), f"{rule} fails at ({W[x]}, {W[y]}, {W[z]}): no u with {need}")
    for atom in m.atoms:
        amask = m.val[atom]
        if not image(up, amask) & ~amask:
            continue
        for i in iter_bits(amask):
            for j in iter_bits(up[i] & ~amask):
                emit(
                    "monotone-valuation",
                    (i, j),
                    f"atom {atom!r} holds at {W[i]} but not at P-greater {W[j]}",
                )
    if check_c3:
        # C3 (optional): x P y, y R z  =>  exists u: x R u, u P z
        for x in range(m.n):
            bad = ~image(up, m.succ[x])  # the z with no such u
            if not image(m.succ, up[x]) & bad:
                continue
            for y in iter_bits(up[x]):
                for z in iter_bits(m.succ[y] & bad):
                    need = f"{W[x]} R u and u P {W[z]}"
                    emit("C3", (x, y, z), f"C3 fails at ({W[x]}, {W[y]}, {W[z]}): no u with {need}")
    return report


def ensure_valid(m: BirelationalModel) -> None:
    """Raise :class:`InvalidModelError` unless the model validates cleanly."""
    report = validate_frame(m)
    if not report.ok:
        raise InvalidModelError(report)


# ---------------------------------------------------------------------------
# Renaming worlds

def _apply_perm(mask: int, perm: Sequence[int]) -> int:
    """``mask`` with world ``i`` renamed ``perm[i]``."""
    out = 0
    for i in iter_bits(mask):
        out |= 1 << perm[i]
    return out


def _permuted(rel: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """The relation ``rel`` with world ``i`` renamed ``perm[i]``."""
    out = [0] * len(rel)
    for i, mask in enumerate(rel):
        out[perm[i]] = _apply_perm(mask, perm)
    return tuple(out)
