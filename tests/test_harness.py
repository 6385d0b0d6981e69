import pytest

import ictl.checker as checker
from ictl.gen import enumerate_formulas, enumerate_models
from ictl.harness import compile_battery, scan_models
from ictl.model import pre_forall
from ictl.syntax import print_formula

# With the universal next-step rule missing its upward interior, every
# disagreement over the height-2 battery on p, q and all models with at most
# two worlds, in the order the scan reports them:
# (up, succ, valuation, formula, world, engine verdict, oracle verdict)
BROKEN_AX_DISAGREEMENTS = [
    ((3, 2), (2, 3), {"p": 0, "q": 2}, "AX q", "w0", True, False),
    ((3, 2), (2, 3), {"p": 2, "q": 0}, "AX p", "w0", True, False),
    ((3, 2), (2, 3), {"p": 2, "q": 2}, "AX p", "w0", True, False),
    ((3, 2), (2, 3), {"p": 2, "q": 2}, "AX q", "w0", True, False),
    ((3, 2), (2, 3), {"p": 2, "q": 3}, "AX p", "w0", True, False),
    ((3, 2), (2, 3), {"p": 3, "q": 2}, "AX q", "w0", True, False),
    ((1, 3), (3, 1), {"p": 0, "q": 1}, "AX q", "w1", True, False),
    ((1, 3), (3, 1), {"p": 1, "q": 0}, "AX p", "w1", True, False),
    ((1, 3), (3, 1), {"p": 1, "q": 1}, "AX p", "w1", True, False),
    ((1, 3), (3, 1), {"p": 1, "q": 1}, "AX q", "w1", True, False),
    ((1, 3), (3, 1), {"p": 1, "q": 3}, "AX p", "w1", True, False),
    ((1, 3), (3, 1), {"p": 3, "q": 1}, "AX q", "w1", True, False),
]


@pytest.mark.parametrize("cap", [50, 3])
def test_disagreements_pinned(monkeypatch, cap):
    monkeypatch.setattr(checker, "forall_next_set", lambda m, a: pre_forall(m, a))
    models = [m for n in (1, 2) for m in enumerate_models(n, 2)]
    battery = compile_battery(enumerate_formulas(2, ["p", "q"]))
    stats = scan_models(models, battery, max_disagreements=cap)
    assert (stats.models, stats.verdicts) == (284, 19_176)
    found = [
        (d.model.up, d.model.succ, d.model.val, print_formula(d.formula), d.world,
         d.engine_verdict, d.oracle_verdict)
        for d in stats.disagreements
    ]
    assert found == BROKEN_AX_DISAGREEMENTS[:cap]
