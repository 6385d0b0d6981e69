"""Public names that other code and the tests rely on stay importable."""

import importlib

import pytest

MODULES = ["syntax", "model", "checker", "oracle", "gen", "harness", "fixtures", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"ictl.{name}")
    for attr in getattr(module, "__all__", []):
        assert hasattr(module, attr), f"ictl.{name}.{attr}"


@pytest.mark.parametrize(
    "module,attr",
    [
        ("checker", "lfp"),
        ("checker", "gfp"),
        ("checker", "operators"),
        ("checker", "forall_next_set"),
        ("oracle", "classical_denotation"),
        ("oracle", "oracle_denotation"),
        ("oracle", "operators"),
        ("gen", "frame_conditions_hold"),
        ("gen", "_repair_transitions"),
        ("gen", "oracle_check"),
        ("model", "frame_violations"),
        ("harness", "compile_battery"),
        ("harness", "scan_models"),
        ("syntax", "run"),
        ("syntax", "compile_formulas"),
    ],
)
def test_relied_on_names_exist(module, attr):
    assert callable(getattr(importlib.import_module(f"ictl.{module}"), attr))


def test_battery_nodes_are_kind_left_right_triples():
    harness = importlib.import_module("ictl.harness")
    syntax = importlib.import_module("ictl.syntax")
    battery = harness.compile_battery([syntax.parse_formula("E[p U q] -> AX ~p")])
    assert harness._IMP == syntax._IMP
    assert len(battery.nodes) == len(battery.formulas)
    for i, node in enumerate(battery.nodes):
        kind, left, right = node
        assert isinstance(node, tuple)
        assert all(isinstance(x, int) for x in node)
        if kind >= harness._IMP:
            assert 0 <= left < i and right < i
    assert sum(kind >= harness._IMP for kind, _, _ in battery.nodes) == 4
