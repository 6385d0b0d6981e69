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
same frame, sharing all of its masks, and
:meth:`BirelationalModel.with_transitions` other transitions on the same
worlds and preorder, computing only ``pred``.

Every quantifier over a relation is one :func:`image`, the union of
``rel[j]`` over the worlds ``j`` of a set, which costs the set's bits,
not the world count.  The set operators are images over the stored
inverse relations, or their duals:

    pre_exists(X)  = image(pred, X)
    pre_forall(X)  = ~image(pred, ~X)
    up_interior(X) = ~image(down, ~X)

(complements taken within the world set).

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
from typing import Iterable, Iterator, Sequence

from .syntax import ATOM_RE

__all__ = [
    "ModelFormatError",
    "InvalidModelError",
    "RawModel",
    "load_model",
    "close_preorder",
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
    "up_set",
    "up_interior",
    "pre_exists",
    "pre_forall",
    "complement",
    "is_upward_closed",
    "image",
    "iter_bits",
    "is_isomorphic",
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
    """Union of ``rel[j]`` over the set bits ``j`` of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= rel[low.bit_length() - 1]
        mask ^= low
    return out


def _transpose(rel: Sequence[int]) -> tuple[int, ...]:
    """``out[j]``: the worlds ``i`` with ``j`` in ``rel[i]``."""
    out = [0] * len(rel)
    for i, s in enumerate(rel):
        bit = 1 << i
        for j in iter_bits(s):
            out[j] |= bit
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


def _edge_list(doc: dict, key: str, known: set[str]) -> list[tuple[str, str]]:
    raw = doc.get(key, [])
    if not isinstance(raw, list):
        raise ModelFormatError(f"{key!r} must be a list of [from, to] pairs")
    edges = []
    for entry in raw:
        if not (isinstance(entry, list) and len(entry) == 2 and all(isinstance(x, str) for x in entry)):
            raise ModelFormatError(f"{key!r} entries must be [from, to] name pairs, got {entry!r}")
        a, b = entry
        for name in (a, b):
            if name not in known:
                raise ModelFormatError(f"unknown world {name!r} in {key!r}")
        edges.append((a, b))
    return edges


def load_model(document: dict | str) -> RawModel:
    """Read a model document (dict or JSON text) without closing or validating."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as e:
            raise ModelFormatError(f"not valid JSON: {e}") from e
    if not isinstance(document, dict):
        raise ModelFormatError("model document must be a JSON object")
    extra = set(document) - _DOC_KEYS
    if extra:
        raise ModelFormatError(f"unknown keys in model document: {sorted(extra)}")

    worlds = document.get("worlds")
    if not (isinstance(worlds, list) and worlds and all(isinstance(w, str) and w for w in worlds)):
        raise ModelFormatError("'worlds' must be a nonempty list of nonempty names")
    seen: set[str] = set()
    for w in worlds:
        if w in seen:
            raise ModelFormatError(f"duplicate world name {w!r}")
        seen.add(w)

    preorder = _edge_list(document, "preorder", seen)
    transitions = _edge_list(document, "transitions", seen)

    raw_val = document.get("valuation", {})
    if not isinstance(raw_val, dict):
        raise ModelFormatError("'valuation' must map world names to atom lists")
    valuation: dict[str, set[str]] = {w: set() for w in worlds}
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
        valuation[w] = set(atoms)
    return RawModel(list(worlds), preorder, transitions, valuation)


# ---------------------------------------------------------------------------
# Construction

def close_preorder(n: int, edges: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    """Smallest reflexive-transitive relation on ``range(n)`` containing ``edges``."""
    up = _close_masks(n, edges)
    return frozenset((i, j) for i in range(n) for j in iter_bits(up[i]))


def _close_masks(n: int, edges: Iterable[tuple[int, int]]) -> list[int]:
    up = [1 << i for i in range(n)]
    for i, j in edges:
        up[i] |= 1 << j
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = image(up, up[i])
            if acc != up[i]:
                up[i] = acc
                changed = True
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
    ):
        self.worlds = worlds
        self.index = {w: i for i, w in enumerate(worlds)}
        self.up = up
        self.down = _transpose(up)
        self.succ = succ
        self.pred = _transpose(succ)
        self.val = val
        self.atoms = tuple(sorted(val))
        self.n = len(worlds)
        self.full = (1 << self.n) - 1

    def with_valuation(self, val: dict[str, int]) -> "BirelationalModel":
        """The same frame under valuation ``val``; every frame field is shared."""
        m = object.__new__(BirelationalModel)
        m.worlds, m.index, m.up, m.down, m.succ, m.pred = (
            self.worlds, self.index, self.up, self.down, self.succ, self.pred
        )
        m.n, m.full = self.n, self.full
        m.val = val
        m.atoms = tuple(sorted(val))
        return m

    def with_transitions(self, succ: tuple[int, ...]) -> "BirelationalModel":
        """The same worlds, preorder and valuation under transition masks
        ``succ``; every other field is shared, and only ``pred`` is computed."""
        m = object.__new__(BirelationalModel)
        m.worlds, m.index, m.up, m.down, m.val, m.atoms = (
            self.worlds, self.index, self.up, self.down, self.val, self.atoms
        )
        m.n, m.full = self.n, self.full
        m.succ = succ
        m.pred = _transpose(succ)
        return m

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
    for a, b in transitions:
        succ[index[a]] |= 1 << index[b]
    val: dict[str, int] = {}
    for w, atoms in valuation.items():
        i = index[w]
        for a in atoms:
            val[a] = val.get(a, 0) | (1 << i)
    return BirelationalModel(names, tuple(up), tuple(succ), val)


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

def up_set(m: BirelationalModel, world: str) -> int:
    """Worlds P-above ``world``, itself included."""
    return m.up[m.world_index(world)]


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
    up-set of x)."""
    for x in range(len(up)):
        ux = up[x]
        reach = image(succ, ux)  # the worlds z with some u, x P u and u R z
        for y in iter_bits(succ[x]):
            uy = up[y]
            for z in iter_bits(uy & ~reach):
                yield ("C1", x, y, z)
            for z in iter_bits(ux):
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

    W = m.worlds
    for i in range(m.n):
        if not (m.up[i] >> i & 1):
            emit("reflexive", (i,), f"preorder misses reflexive pair ({W[i]}, {W[i]})")
    for i in range(m.n):
        for j in iter_bits(m.up[i]):
            missing = m.up[j] & ~m.up[i]
            for k in iter_bits(missing):
                emit(
                    "transitive",
                    (i, j, k),
                    f"preorder has ({W[i]}, {W[j]}) and ({W[j]}, {W[k]}) but not ({W[i]}, {W[k]})",
                )
    for i in range(m.n):
        if not m.succ[i]:
            emit("serial", (i,), f"world {W[i]} has no transition successor")

    for rule, x, y, z in frame_violations(m.up, m.succ):
        need = f"{W[x]} P u and u R {W[z]}" if rule == "C1" else f"{W[y]} P u and {W[z]} R u"
        emit(rule, (x, y, z), f"{rule} fails at ({W[x]}, {W[y]}, {W[z]}): no u with {need}")
    for atom in m.atoms:
        amask = m.val[atom]
        for i in iter_bits(amask):
            for j in iter_bits(m.up[i] & ~amask):
                emit(
                    "monotone-valuation",
                    (i, j),
                    f"atom {atom!r} holds at {W[i]} but not at P-greater {W[j]}",
                )
    if check_c3:
        # C3 (optional): x P y, y R z  =>  exists u: x R u, u P z
        for x in range(m.n):
            for y in iter_bits(m.up[x]):
                for z in iter_bits(m.succ[y]):
                    if not (m.succ[x] & m.down[z]):
                        emit(
                            "C3",
                            (x, y, z),
                            f"C3 fails at ({W[x]}, {W[y]}, {W[z]}): no u with {W[x]} R u and u P {W[z]}",
                        )
    return report


def ensure_valid(m: BirelationalModel) -> None:
    """Raise :class:`InvalidModelError` unless the model validates cleanly."""
    report = validate_frame(m)
    if not report.ok:
        raise InvalidModelError(report)


# ---------------------------------------------------------------------------
# Structural comparison

def is_isomorphic(a: BirelationalModel, b: BirelationalModel) -> bool:
    """World-relabeling isomorphism respecting both relations and the valuation."""
    if a.n != b.n or set(a.atoms) != set(b.atoms):
        return False
    from itertools import permutations

    for perm in permutations(range(a.n)):
        if all(
            _apply_perm(a.up[i], perm) == b.up[perm[i]]
            and _apply_perm(a.succ[i], perm) == b.succ[perm[i]]
            for i in range(a.n)
        ) and all(_apply_perm(a.val[p], perm) == b.val.get(p, 0) for p in a.atoms):
            return True
    return False


def _apply_perm(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    for i in iter_bits(mask):
        out |= 1 << perm[i]
    return out
