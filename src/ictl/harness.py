"""Differential harness: run both engines over many (model, formula) pairs.

The formula battery is compiled once into one
:class:`~ictl.syntax.Program`, the flat node table (children before
parents) that the fixpoint engine evaluates too; ``compile_battery`` is
:func:`~ictl.syntax.compile_formulas`.  Per model, one pass evaluates
every node bottom-up through both engines.  Because each engine's verdict for a compound node
is a pure function of the frame and the child verdict sets, results are
memoized per frame keyed by (operator, child masks); on a memo miss both
engines run and their masks are compared.  Agreement on every table
entry reachable in a model is exactly agreement on every formula of the
battery at every world of that model, and any mismatch is reported with
a concrete witnessing formula and world.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import checker, oracle
from .model import BirelationalModel
from .syntax import (
    _AND,
    _ATOM,
    _AR,
    _AU,
    _AX,
    _ER,
    _EU,
    _EX,
    _IMP,
    _OR,
    Formula,
    Program,
    compile_formulas as compile_battery,
)

__all__ = ["compile_battery", "Disagreement", "ScanStats", "scan_models"]

# dispatch is by attribute name so monkeypatched engine rules are honored
_ENGINE_BINARY = {
    _IMP: "implication_set",
    _EU: "exists_until_set",
    _ER: "exists_release_set",
    _AU: "forall_until_set",
    _AR: "forall_release_set",
}
_ENGINE_UNARY = {_EX: "exists_next_set", _AX: "forall_next_set"}
_ORACLE_BINARY = {
    _IMP: "implication_worlds",
    _EU: "exists_until_worlds",
    _ER: "exists_release_worlds",
    _AU: "forall_until_worlds",
    _AR: "forall_release_worlds",
}
_ORACLE_UNARY = {_EX: "exists_next_worlds", _AX: "forall_next_worlds"}


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
    stats = ScanStats()
    frame_memos: dict[tuple, dict[int, int]] = {}
    mismatch_keys: dict[tuple, set[int]] = {}

    for m in models:
        stats.models += 1
        frame = (m.up, m.succ)
        memo = frame_memos.get(frame)
        if memo is None:
            memo = frame_memos[frame] = {}
            mismatch_keys[frame] = set()
        bad = mismatch_keys[frame]
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
                        ev = getattr(checker, _ENGINE_BINARY[kind])(m, lv, rv)
                        ov = getattr(oracle, _ORACLE_BINARY[kind])(m, lv, rv)
                    else:
                        ev = getattr(checker, _ENGINE_UNARY[kind])(m, lv)
                        ov = getattr(oracle, _ORACLE_UNARY[kind])(m, lv)
                    if ev != ov:
                        bad.add(key)
                    memo[key] = v = ev
                if key in bad and len(stats.disagreements) < max_disagreements:
                    _record(stats, m, battery, idx, kind, lv, rv)
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


def _record(
    stats: ScanStats,
    m: BirelationalModel,
    battery: Program,
    idx: int,
    kind: int,
    lv: int,
    rv: int,
) -> None:
    if battery.nodes[idx][2] >= 0:
        ev = getattr(checker, _ENGINE_BINARY[kind])(m, lv, rv)
        ov = getattr(oracle, _ORACLE_BINARY[kind])(m, lv, rv)
    else:
        ev = getattr(checker, _ENGINE_UNARY[kind])(m, lv)
        ov = getattr(oracle, _ORACLE_UNARY[kind])(m, lv)
    diff = ev ^ ov
    w = (diff & -diff).bit_length() - 1
    stats.disagreements.append(
        Disagreement(m, battery.formulas[idx], m.worlds[w], bool(ev >> w & 1), bool(ov >> w & 1))
    )
