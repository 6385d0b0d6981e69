"""Reference semantics by explicit path analysis.

This module answers the same questions as the fixpoint engine but by a
different route: per-world graph searches over the transition relation
plus explicit quantification over P-up-sets.  On finite serial graphs,
simple-stem lassos suffice as witnesses and counter-witnesses for the
path quantifiers, so every search below terminates and is exact.

Verdicts for until/release path properties at a world ``w``:

* some path satisfies ``f U g``: ``w`` reaches a g-world through f-worlds;
* some path satisfies ``f R g``: staying inside g-worlds, ``w`` reaches
  either an (f and g)-world or a cycle;
* every path satisfies ``f U g``: inside the non-g region reachable from
  ``w`` there is neither a non-f world nor a cycle;
* every path satisfies ``f R g``: ``w`` is a g-world, and no walk through
  (g and not-f)-worlds from it can step into a non-g world.

The universal connectives additionally quantify over the up-set of
``w``, and implication holds where the material implication holds on the
whole up-set.

:func:`operators` is the kind-indexed table of the ``*_worlds`` functions
below for :func:`~ictl.syntax.run`, and :func:`oracle_denotation`
compiles a formula and runs it with that table.  Classical CTL needs no
table of its own: over the identity preorder every up-set is the world
itself, so implication is material and the universal operators quantify
only over paths from the world, and :func:`classical_denotation` is the
oracle on the model with its preorder replaced by equality.  Nothing here
uses the fixpoint engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .model import BirelationalModel, ensure_valid, iter_bits, with_identity_preorder
from .syntax import _IMP, Formula, compile_formulas, run

__all__ = [
    "Lasso",
    "PathLiftError",
    "lasso_is_path",
    "lasso_satisfies_until",
    "lasso_satisfies_release",
    "lift_path",
    "operators",
    "oracle_denotation",
    "oracle_check",
    "classical_denotation",
    "implication_worlds",
    "exists_next_worlds",
    "forall_next_worlds",
    "exists_until_worlds",
    "exists_release_worlds",
    "forall_until_worlds",
    "forall_release_worlds",
]


@dataclass(frozen=True)
class Lasso:
    """Finite form ``prefix . cycle^omega`` of an infinite path."""

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]

    def states(self) -> tuple[int, ...]:
        return self.prefix + self.cycle

    def render(self, m: BirelationalModel) -> str:
        pre = " ".join(m.worlds[i] for i in self.prefix)
        cyc = " ".join(m.worlds[i] for i in self.cycle)
        return f"{pre} ({cyc})*".strip()


class PathLiftError(ValueError):
    """Lifting failed, which on a closed frame means C2 is violated."""


def lasso_is_path(m: BirelationalModel, lasso: Lasso) -> bool:
    """All consecutive hops, the seam, and the cycle wrap must be R-edges."""
    if not lasso.cycle:
        return False
    seq = lasso.states()
    if any(not 0 <= i < m.n for i in seq):
        return False
    for a, b in zip(seq, seq[1:]):
        if not (m.succ[a] >> b & 1):
            return False
    return bool(m.succ[seq[-1]] >> lasso.cycle[0] & 1)


def lasso_satisfies_until(m: BirelationalModel, lasso: Lasso, a: int, b: int) -> bool:
    for x in lasso.states():
        if b >> x & 1:
            return True
        if not (a >> x & 1):
            return False
    return False  # loops forever without reaching b


def lasso_satisfies_release(m: BirelationalModel, lasso: Lasso, a: int, b: int) -> bool:
    for x in lasso.states():
        if not (b >> x & 1):
            return False
        if a >> x & 1:
            return True
    return True  # b holds forever around the cycle


def lift_path(m: BirelationalModel, w_prime: str, prefix: list[str]) -> list[str]:
    """Lift an R-path prefix to one starting at a P-greater world.

    Given ``w P w_prime`` and an R-path ``prefix`` from ``w``, returns a
    path of equal length from ``w_prime`` whose i-th world is P-above
    ``prefix[i]``, choosing the lowest-index candidate at each step.  C2
    guarantees a candidate exists; :class:`PathLiftError` therefore
    signals an invalid frame.
    """
    if not prefix:
        raise ValueError("prefix must be nonempty")
    rho = [m.world_index(x) for x in prefix]
    wp = m.world_index(w_prime)
    if not (m.up[rho[0]] >> wp & 1):
        raise ValueError(f"{prefix[0]!r} P {w_prime!r} does not hold")
    for a, b in zip(rho, rho[1:]):
        if not (m.succ[a] >> b & 1):
            raise ValueError(f"prefix is not an R-path at {m.worlds[a]!r} -> {m.worlds[b]!r}")
    tau = [wp]
    for i in range(1, len(rho)):
        candidates = m.succ[tau[-1]] & m.up[rho[i]]
        if not candidates:
            raise PathLiftError(
                f"cannot lift step {i}: no R-successor of {m.worlds[tau[-1]]!r} "
                f"P-above {m.worlds[rho[i]]!r} (C2 violated)"
            )
        tau.append((candidates & -candidates).bit_length() - 1)
    return [m.worlds[i] for i in tau]


# ---------------------------------------------------------------------------
# Graph searches

def _reach(m: BirelationalModel, start: int, region: int) -> int:
    """Worlds reachable from ``start`` by R-steps staying inside ``region``."""
    if not (region >> start & 1):
        return 0
    seen = 1 << start
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            fresh = m.succ[x] & region & ~seen
            seen |= fresh
            nxt.extend(iter_bits(fresh))
        frontier = nxt
    return seen


def _has_cycle(m: BirelationalModel, mask: int) -> bool:
    """Does the subgraph induced on ``mask`` contain a cycle?"""
    color: dict[int, int] = {}  # 1 = on current DFS stack, 2 = done
    for s in iter_bits(mask):
        if s in color:
            continue
        color[s] = 1
        stack = [(s, iter_bits(m.succ[s] & mask))]
        while stack:
            node, it = stack[-1]
            y = next(it, -1)
            if y < 0:
                color[node] = 2
                stack.pop()
            elif color.get(y, 0) == 1:
                return True
            elif y not in color:
                color[y] = 1
                stack.append((y, iter_bits(m.succ[y] & mask)))
    return False


def _some_path_until(m: BirelationalModel, w: int, a: int, b: int) -> bool:
    if b >> w & 1:
        return True
    reach = _reach(m, w, a & ~b)
    for x in iter_bits(reach):
        if m.succ[x] & b:
            return True
    return False


def _some_path_release(m: BirelationalModel, w: int, a: int, b: int) -> bool:
    if not (b >> w & 1):
        return False
    reach = _reach(m, w, b)
    if reach & a:
        return True
    return _has_cycle(m, reach)


def _all_paths_until(m: BirelationalModel, w: int, a: int, b: int) -> bool:
    if b >> w & 1:
        return True
    reach = _reach(m, w, m.full & ~b)
    if reach & ~a:
        return False
    return not _has_cycle(m, reach)


def _all_paths_release(m: BirelationalModel, w: int, a: int, b: int) -> bool:
    if not (b >> w & 1):
        return False
    reach = _reach(m, w, b & ~a)
    for x in iter_bits(reach):
        if m.succ[x] & ~b & m.full:
            return False
    return True


# ---------------------------------------------------------------------------
# Per-operator world sets

def _worlds_where(m: BirelationalModel, holds: Callable, a: int, b: int) -> int:
    """Worlds ``w`` where ``holds(m, w, a, b)``."""
    out = 0
    for w in range(m.n):
        if holds(m, w, a, b):
            out |= 1 << w
    return out


def _above(m: BirelationalModel, ok: int) -> int:
    """Worlds whose whole up-set lies in ``ok``."""
    out = 0
    for w in range(m.n):
        if not (m.up[w] & ~ok):
            out |= 1 << w
    return out


def _some_successor_in(m: BirelationalModel, w: int, a: int, _b: int) -> bool:
    return bool(m.succ[w] & a)


def _successors_within(m: BirelationalModel, w: int, a: int, _b: int) -> bool:
    return not (m.succ[w] & ~a & m.full)


# The universal connectives hold where the plain CTL rule holds on the
# whole up-set.

def implication_worlds(m: BirelationalModel, a: int, b: int) -> int:
    return _above(m, (m.full & ~a) | b)


def exists_next_worlds(m: BirelationalModel, a: int) -> int:
    return _worlds_where(m, _some_successor_in, a, 0)


def forall_next_worlds(m: BirelationalModel, a: int) -> int:
    return _above(m, _worlds_where(m, _successors_within, a, 0))


def exists_until_worlds(m: BirelationalModel, a: int, b: int) -> int:
    return _worlds_where(m, _some_path_until, a, b)


def exists_release_worlds(m: BirelationalModel, a: int, b: int) -> int:
    return _worlds_where(m, _some_path_release, a, b)


def forall_until_worlds(m: BirelationalModel, a: int, b: int) -> int:
    return _above(m, _worlds_where(m, _all_paths_until, a, b))


def forall_release_worlds(m: BirelationalModel, a: int, b: int) -> int:
    return _above(m, _worlds_where(m, _all_paths_release, a, b))


# ---------------------------------------------------------------------------
# Evaluators

def operators() -> tuple[Callable | None, ...]:
    """The oracle's per-operator world sets indexed by node kind, read from
    this module's globals when called, so a stubbed ``oracle.<op>_worlds``
    is the one that runs."""
    return (None,) * _IMP + (
        implication_worlds,
        exists_next_worlds,
        forall_next_worlds,
        exists_until_worlds,
        exists_release_worlds,
        forall_until_worlds,
        forall_release_worlds,
    )


def oracle_denotation(
    m: BirelationalModel, f: Formula, *, validate: bool = True
) -> dict[Formula, int]:
    """Verdict bitmask per subformula, in :func:`~ictl.syntax.subformulas`
    order."""
    if validate:
        ensure_valid(m)
    program = compile_formulas([f])
    return dict(zip(program.formulas, run(program, m, operators())))


def oracle_check(
    m: BirelationalModel, world: str, f: Formula, *, validate: bool = True
) -> bool:
    w = m.world_index(world)
    return bool(oracle_denotation(m, f, validate=validate)[f] >> w & 1)


def classical_denotation(m: BirelationalModel, f: Formula) -> dict[Formula, int]:
    """Plain CTL semantics over R alone: the oracle on ``m`` with the
    preorder read as equality."""
    return oracle_denotation(with_identity_preorder(m), f, validate=False)
