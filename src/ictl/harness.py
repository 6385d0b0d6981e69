"""Differential harness: run both engines over many (model, formula) pairs.

:func:`scan_models` takes the formula battery compiled once into one
:class:`~ictl.syntax.Program` by ``compile_battery``, which is
:func:`~ictl.syntax.compile_formulas`.  Consecutive models of one frame
(same preorder and transition masks) form a batch of at most
:data:`~ictl.syntax.MAX_BATCH`, evaluated in one
:func:`~ictl.syntax.run_frame` call with a *comparing* operator table:
each of its rules runs the engine rule from :func:`ictl.checker.operators`
and the oracle rule from :func:`ictl.oracle.operators`, notes the
application when their masks differ, and returns the engine's mask.
Because each engine's verdict for a compound node is a pure function of
the frame and the child verdict sets, the memo is kept per frame, so the
models of one frame share every application and both engines run only on
a memo miss.  Agreement on every application reached in a model is
exactly agreement on every formula of the battery at every world of that
model.  Only a model whose frame has a noted mismatch is walked again,
over its slice of the columns, to report each mismatching node with a
concrete witnessing formula and world.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby, islice
from typing import Callable, Iterable, Iterator

from . import checker, oracle
from .model import BirelationalModel
from .syntax import _IMP, MAX_BATCH, Formula, Program, compile_formulas as compile_battery, run_frame

__all__ = ["compile_battery", "Disagreement", "ScanStats", "scan_models"]


@dataclass(frozen=True)
class Disagreement:
    model: BirelationalModel
    formula: Formula
    world: str
    engine_verdict: bool
    oracle_verdict: bool


@dataclass
class ScanStats:
    models: int = 0
    verdicts: int = 0
    disagreements: list[Disagreement] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements


def scan_models(
    models: Iterable[BirelationalModel],
    battery: Program,
    max_disagreements: int = 5,
) -> ScanStats:
    """Compare engine and oracle on every battery formula at every world.

    Consecutive models sharing a frame (same preorder and transition
    masks) are evaluated together and share the memo, so exhaustive
    streams grouped by frame scan quickly.
    """
    n_nodes = len(battery.nodes)
    atoms = set(battery.atom_slots)
    # (kind, *child masks) -> oracle mask, where the engines differ on this frame
    noted: dict[tuple, int] = {}
    ops = _comparing_operators(noted)
    stats = ScanStats()
    for _, same_frame in groupby(models, lambda m: (m.up, m.succ)):
        memo: dict[int, int] = {}
        noted.clear()
        while group := list(islice(same_frame, MAX_BATCH)):
            columns = {a: [m.atom_mask(a) for m in group] for a in atoms}
            cols = run_frame(battery, group[0], columns, len(group), ops, memo)
            for i, m in enumerate(group):
                if noted and len(stats.disagreements) < max_disagreements:
                    found = _mismatches(m, battery, [col[i] for col in cols], noted)
                    stats.disagreements += islice(found, max_disagreements - len(stats.disagreements))
                stats.verdicts += n_nodes * m.n
            stats.models += len(group)
    return stats


def _comparing_operators(noted: dict[tuple, int]) -> tuple[Callable | None, ...]:
    """Engine rules that also run the oracle rule and note any mismatch."""
    engine_ops, oracle_ops = checker.operators(), oracle.operators()

    def comparing(kind: int) -> Callable:
        engine_op, oracle_op = engine_ops[kind], oracle_ops[kind]

        def op(m: BirelationalModel, *args: int) -> int:
            v = engine_op(m, *args)
            ov = oracle_op(m, *args)
            if v != ov:
                noted[(kind, *args)] = ov
            return v

        return op

    return (None,) * _IMP + tuple(comparing(k) for k in range(_IMP, len(engine_ops)))


def _mismatches(
    m: BirelationalModel, battery: Program, vals: list[int], noted: dict[tuple, int]
) -> Iterator[Disagreement]:
    """Each node of ``m`` whose application is noted, in table order."""
    for f, (kind, l, r), ev in zip(battery.formulas, battery.nodes, vals):
        if kind < _IMP:
            continue
        ov = noted.get((kind, vals[l]) if r < 0 else (kind, vals[l], vals[r]))
        if ov is not None:
            diff = ev ^ ov
            w = (diff & -diff).bit_length() - 1
            yield Disagreement(m, f, m.worlds[w], bool(ev >> w & 1), bool(ov >> w & 1))
