"""Shared test utilities.

The ``naive_*`` functions recompute operator semantics from their
definitions using name-level pair sets taken from the model document,
independently of the package's bitmask machinery; they exist so tests can
cross-check the engine against a second, dumber implementation.
"""

from __future__ import annotations

import random
from itertools import islice, permutations
from typing import Iterator

from ictl.checker import CheckOutcome, UniversalFailure
from ictl.fixtures import four_world_model
from ictl.gen import GenParams, enumerate_models, random_model
from ictl.model import BirelationalModel, _apply_perm, _permuted, iter_bits, model_to_document
from ictl.oracle import (
    Lasso,
    lasso_is_path,
    lasso_satisfies_release,
    lasso_satisfies_until,
    oracle_denotation,
)
from ictl.syntax import (
    ExistsNext,
    ExistsRelease,
    ExistsUntil,
    ForallNext,
    ForallRelease,
    ForallUntil,
    Formula,
)


# ---------------------------------------------------------------------------
# Naive definitional semantics over world-name sets

def name_relations(m: BirelationalModel):
    """(preorder pairs, transition pairs, world names) with reflexive pairs included."""
    doc = model_to_document(m)
    worlds = list(doc["worlds"])
    pre = {(a, b) for a, b in doc["preorder"]} | {(w, w) for w in worlds}
    trans = {(a, b) for a, b in doc["transitions"]}
    return pre, trans, worlds


def naive_implication(m: BirelationalModel, a: set[str], b: set[str]) -> set[str]:
    pre, _, worlds = name_relations(m)
    return {
        w
        for w in worlds
        if all(not (wp in a and wp not in b) for wp in worlds if (w, wp) in pre)
    }


def naive_exists_next(m: BirelationalModel, a: set[str]) -> set[str]:
    _, trans, worlds = name_relations(m)
    return {w for w in worlds if any((w, u) in trans and u in a for u in worlds)}


def naive_forall_next(m: BirelationalModel, a: set[str]) -> set[str]:
    pre, trans, worlds = name_relations(m)
    return {
        w
        for w in worlds
        if all(
            u in a
            for wp in worlds
            if (w, wp) in pre
            for u in worlds
            if (wp, u) in trans
        )
    }


def mask_to_names(m: BirelationalModel, mask: int) -> set[str]:
    return set(m.names(mask))


# ---------------------------------------------------------------------------
# Corpora

def differential_corpus(n3_slice: int = 300, random_count: int = 60) -> list[BirelationalModel]:
    """Fixture + every valid model up to 2 worlds + a deterministic spread
    of 3-world models and random larger ones."""
    corpus = [four_world_model()]
    for n in (1, 2):
        corpus.extend(enumerate_models(n, 2))
    corpus.extend(islice(enumerate_models(3, 2), n3_slice))
    for k in range(random_count):
        corpus.append(
            random_model(GenParams(n_worlds=4 + k % 3, n_atoms=2, seed=1000 + k))
        )
    return corpus


def lift_corpus() -> list[BirelationalModel]:
    """Corpus for exhaustive path-prefix enumeration: kept sparse (max
    out-degree 2) so the number of prefixes of length <= 2n stays small."""
    corpus = [four_world_model()]
    for n in (1, 2):
        corpus.extend(enumerate_models(n, 2))
    k = 0
    tries = 0
    while k < 60 and tries < 4000:
        m = random_model(GenParams(n_worlds=3 + k % 3, n_atoms=2, seed=5000 + tries))
        tries += 1
        if all(bin(s).count("1") <= 2 for s in m.succ):
            corpus.append(m)
            k += 1
    return corpus


def all_prefixes(m: BirelationalModel, start: int, max_len: int):
    """Every R-walk from ``start`` with 1..max_len worlds (revisits allowed)."""
    frontier = [[start]]
    while frontier:
        nxt = []
        for path in frontier:
            yield path
            if len(path) < max_len:
                for y in range(m.n):
                    if m.succ[path[-1]] >> y & 1:
                        nxt.append(path + [y])
        frontier = nxt


# ---------------------------------------------------------------------------
# References: every simple lasso, and isomorphism by trying every renaming

def enumerate_lassos(m: BirelationalModel, start: str) -> Iterator[Lasso]:
    """Every lasso from ``start`` whose stem-plus-cycle repeats no world.

    Each distinct ultimately-periodic path has exactly one such
    representation, so the stream is finite and duplicate-free; seriality
    guarantees it is nonempty.  The depth-first walk keeps its own stack,
    so a long path costs no recursion.
    """
    s = m.world_index(start)
    stack = [s]
    on_stack = {s: 0}
    iters = [iter_bits(m.succ[s])]  # the successors still to try, per stack world
    while iters:
        y = next(iters[-1], -1)
        if y < 0:
            iters.pop()
            del on_stack[stack.pop()]
        elif y in on_stack:
            k = on_stack[y]
            yield Lasso(tuple(stack[:k]), tuple(stack[k:]))
        else:
            on_stack[y] = len(stack)
            stack.append(y)
            iters.append(iter_bits(m.succ[y]))


def is_isomorphic(a: BirelationalModel, b: BirelationalModel) -> bool:
    """World-relabeling isomorphism respecting both relations and the valuation."""
    if a.n != b.n or set(a.atoms) != set(b.atoms):
        return False
    for perm in permutations(range(a.n)):
        if (
            _permuted(a.up, perm) == b.up
            and _permuted(a.succ, perm) == b.succ
            and all(_apply_perm(a.val[p], perm) == b.val.get(p, 0) for p in a.atoms)
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Witness revalidation under the oracle

def witness_revalidates(
    m: BirelationalModel, world: str, f: Formula, out: CheckOutcome, sets: dict | None = None
) -> bool:
    """True if the outcome's evidence genuinely supports the verdict when
    judged by the path oracle's subformula sets (``sets``, if the caller
    has already computed ``oracle_denotation(m, f)``)."""
    if out.witness is None:
        return True
    if sets is None:
        sets = oracle_denotation(m, f)
    w = m.world_index(world)

    def holds_on(lasso: Lasso) -> bool:
        match f:
            case ExistsNext(s) | ForallNext(s):
                second = lasso.states()[1] if len(lasso.states()) > 1 else lasso.cycle[0]
                return bool(sets[s] >> second & 1)
            case ExistsUntil(l, r) | ForallUntil(l, r):
                return lasso_satisfies_until(m, lasso, sets[l], sets[r])
            case ExistsRelease(l, r) | ForallRelease(l, r):
                return lasso_satisfies_release(m, lasso, sets[l], sets[r])
        return False

    if isinstance(out.witness, UniversalFailure):
        wp = m.world_index(out.witness.world)
        if not (m.up[w] >> wp & 1):
            return False
        if not lasso_is_path(m, out.witness.lasso):
            return False
        if out.witness.lasso.states()[0] != wp:
            return False
        return not holds_on(out.witness.lasso)
    if not lasso_is_path(m, out.witness):
        return False
    if out.witness.states()[0] != w:
        return False
    return holds_on(out.witness)


def seeded_rng(salt: int) -> random.Random:
    return random.Random(0xAB5 + salt)
