"""Differential harness: run both engines over many (model, formula) pairs.

The formula battery is compiled once into one
:class:`~ictl.syntax.Program`, the flat node table (children before
parents) that :func:`~ictl.syntax.run` evaluates too; ``compile_battery``
is :func:`~ictl.syntax.compile_formulas`.  Per model, one pass evaluates
every node bottom-up through both engines, taking each operator from
:func:`ictl.checker.operators` and :func:`ictl.oracle.operators`.
Because each engine's verdict for a compound node is a pure function of
the frame and the child verdict sets, results are memoized per frame
keyed by (operator, child masks); on a memo miss both engines run and
their masks are compared.  Agreement on every table entry reachable in a
model is exactly agreement on every formula of the battery at every world
of that model, and any mismatch is reported with a concrete witnessing
formula and world.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import checker, oracle
from .model import BirelationalModel
from .syntax import (
    _AND,
    _ATOM,
    _IMP,
    _OR,
    Formula,
    Program,
    compile_formulas as compile_battery,
)

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
    battery: Program | Sequence[Formula],
    max_disagreements: int = 5,
) -> ScanStats:
    """Compare engine and oracle on every battery formula at every world.

    Models sharing a frame (same preorder and transition masks) share the
    memo table, so exhaustive streams grouped by frame scan quickly.
    """
    if not isinstance(battery, Program):
        battery = compile_battery(battery)
    nodes = battery.nodes
    n_nodes = len(nodes)
    engine_ops, oracle_ops = checker.operators(), oracle.operators()
    stats = ScanStats()
    frame_memos: dict[tuple, dict[int, int]] = {}
    # per frame: memo key -> oracle mask, for the keys where the engines differ
    mismatches: dict[tuple, dict[int, int]] = {}

    for m in models:
        stats.models += 1
        frame = (m.up, m.succ)
        memo = frame_memos.get(frame)
        if memo is None:
            memo = frame_memos[frame] = {}
            mismatches[frame] = {}
        bad = mismatches[frame]
        vals = [0] * n_nodes
        shift = m.n  # masks fit in m.n bits; pack (kind, l, r) into one int key
        for idx in range(n_nodes):
            kind, li, ri = nodes[idx]
            if kind >= _IMP:
                lv = vals[li]
                rv = vals[ri] if ri >= 0 else 0
                key = ((kind << shift | lv) << shift) | rv
                v = memo.get(key)
                if v is None:
                    if ri >= 0:
                        v = engine_ops[kind](m, lv, rv)
                        ov = oracle_ops[kind](m, lv, rv)
                    else:
                        v = engine_ops[kind](m, lv)
                        ov = oracle_ops[kind](m, lv)
                    if v != ov:
                        bad[key] = ov
                    memo[key] = v
                if key in bad and len(stats.disagreements) < max_disagreements:
                    _record(stats, m, battery.formulas[idx], v, bad[key])
                vals[idx] = v
            elif kind == _AND:
                vals[idx] = vals[li] & vals[ri]
            elif kind == _OR:
                vals[idx] = vals[li] | vals[ri]
            elif kind == _ATOM:
                vals[idx] = m.atom_mask(battery.atom_slots[li])
            else:  # _BOT
                vals[idx] = 0
        stats.verdicts += n_nodes * m.n
    return stats


def _record(stats: ScanStats, m: BirelationalModel, f: Formula, ev: int, ov: int) -> None:
    diff = ev ^ ov
    w = (diff & -diff).bit_length() - 1
    stats.disagreements.append(
        Disagreement(m, f, m.worlds[w], bool(ev >> w & 1), bool(ov >> w & 1))
    )
