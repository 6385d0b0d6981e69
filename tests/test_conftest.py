"""The slow-test guard of ``tests/conftest.py``."""

import sys

import pytest

import conftest

HERE = "tests/test_conftest.py"


class Item:
    """What the collection hook reads of a collected test."""

    def __init__(self, nodeid):
        self.nodeid = nodeid
        self.module = sys.modules[__name__]
        self.markers = []

    def add_marker(self, marker):
        self.markers.append(marker.name)


class Group:
    """Not collected; a test the hook can find by name."""

    def test_member(self):
        pass


def test_slow_ids_are_marked(monkeypatch):
    monkeypatch.setattr(conftest, "SLOW", {f"{HERE}::Group::test_member"})
    items = [Item(f"{HERE}::Group::test_member"), Item(f"{HERE}::test_slow_ids_are_marked")]
    conftest.pytest_collection_modifyitems(items)
    assert [item.markers for item in items] == [["slow"], []]


@pytest.mark.parametrize("missing", ["test_renamed_away", "Group::test_renamed_away", "Gone::test_member"])
def test_a_missing_slow_id_fails_loudly(monkeypatch, missing):
    monkeypatch.setattr(conftest, "SLOW", {f"{HERE}::{missing}"})
    with pytest.raises(pytest.UsageError, match=missing):
        conftest.pytest_collection_modifyitems([Item(f"{HERE}::test_slow_ids_are_marked")])


def test_files_not_collected_are_not_checked(monkeypatch):
    monkeypatch.setattr(conftest, "SLOW", {"tests/test_elsewhere.py::test_anything"})
    conftest.pytest_collection_modifyitems([Item(f"{HERE}::test_slow_ids_are_marked")])
