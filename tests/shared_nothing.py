"""A reference semantics that shares no code with the engine or the oracle.

Both semantics of the package run through one evaluation loop,
``syntax.run_frame``: its atom columns, ``&``, ``|`` and ``false``, its
memo and the valuations the sweep hands it.  Comparing the engine with
the oracle cannot see a fault there, since both sides share it.  This
module evaluates formulas without any of it.  It reads a model only
through :func:`~ictl.model.model_to_document` and a formula only through
the AST classes, and imports nothing else from ``ictl``:

* world sets are sets of world names, not bitmasks;
* the preorder is closed here, from the document's pairs;
* the formula is walked with an explicit stack, children first;
* the path operators quantify over the simple lassos from each world,
  found here: a path that repeats no world and whose last world steps
  back onto it, read as its worlds in order.  If some path satisfies an
  until or release property (or fails it), cutting the loops before the
  world that decides it and then walking on to the first repeat gives a
  simple lasso that does too, so these lassos decide both quantifiers;
* implication and the universal operators hold at a world iff their
  plain condition holds at every world of its explicit up-set.
"""

from __future__ import annotations

from ictl.model import model_to_document
from ictl.syntax import (
    And,
    Atom,
    Bottom,
    ExistsNext,
    ExistsRelease,
    ExistsUntil,
    ForallNext,
    ForallRelease,
    ForallUntil,
    Implies,
    Or,
)


def _until(path, a, b):
    """``a U b`` along a path that first visits the worlds of ``path``."""
    for x in path:
        if x in b:
            return True
        if x not in a:
            return False
    return False  # it never reaches b


def _release(path, a, b):
    """``a R b``: ``b`` holds up to and including the first ``a``, or forever."""
    for x in path:
        if x not in b:
            return False
        if x in a:
            return True
    return True


class _Frame:
    """Worlds, closed up-sets, successors, valuation and simple lassos,
    read from a model document."""

    def __init__(self, doc: dict):
        self.worlds = list(doc["worlds"])
        self.up = {w: {w} for w in self.worlds}
        for a, b in doc["preorder"]:
            self.up[a].add(b)
        changed = True
        while changed:  # close under transitivity
            changed = False
            for w in self.worlds:
                reach = set().union(*(self.up[v] for v in self.up[w]))
                if reach != self.up[w]:
                    self.up[w], changed = reach, True
        self.succ = {w: set() for w in self.worlds}
        for a, b in doc["transitions"]:
            self.succ[a].add(b)
        self.val = {w: set(atoms) for w, atoms in doc["valuation"].items()}
        self.lassos = {w: self._lassos(w) for w in self.worlds}

    def _lassos(self, w):
        out = []
        stack = [(w,)]
        while stack:
            path = stack.pop()
            if self.succ[path[-1]] & set(path):
                out.append(path)
            stack.extend(path + (y,) for y in self.succ[path[-1]] if y not in path)
        return out

    def where(self, holds):
        return {w for w in self.worlds if holds(w)}

    def above(self, ok):
        """The worlds whose whole up-set lies in ``ok``."""
        return self.where(lambda w: self.up[w] <= ok)

    def some_path(self, prop, a, b):
        return self.where(lambda w: any(prop(p, a, b) for p in self.lassos[w]))

    def every_path(self, prop, a, b):
        return self.where(lambda w: all(prop(p, a, b) for p in self.lassos[w]))


_RULES = {
    And: lambda fr, a, b: a & b,
    Or: lambda fr, a, b: a | b,
    Implies: lambda fr, a, b: fr.above((set(fr.worlds) - a) | b),
    ExistsNext: lambda fr, a: fr.where(lambda w: bool(fr.succ[w] & a)),
    ForallNext: lambda fr, a: fr.above(fr.where(lambda w: fr.succ[w] <= a)),
    ExistsUntil: lambda fr, a, b: fr.some_path(_until, a, b),
    ExistsRelease: lambda fr, a, b: fr.some_path(_release, a, b),
    ForallUntil: lambda fr, a, b: fr.above(fr.every_path(_until, a, b)),
    ForallRelease: lambda fr, a, b: fr.above(fr.every_path(_release, a, b)),
}


def _children(f):
    if isinstance(f, (Atom, Bottom)):
        return ()
    if isinstance(f, (ExistsNext, ForallNext)):
        return (f.sub,)
    return (f.left, f.right)


def denotations(m, formulas) -> dict:
    """The names of the worlds of ``m`` where each subformula of
    ``formulas`` holds."""
    fr = _Frame(model_to_document(m))
    out: dict = {}
    stack = list(formulas)
    while stack:
        f = stack[-1]
        if f in out:
            stack.pop()
            continue
        todo = [c for c in _children(f) if c not in out]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        if isinstance(f, Atom):
            out[f] = fr.where(lambda w: f.name in fr.val[w])
        elif isinstance(f, Bottom):
            out[f] = set()
        else:
            out[f] = _RULES[type(f)](fr, *(out[c] for c in _children(f)))
    return out
