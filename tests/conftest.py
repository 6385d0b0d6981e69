import json

import pytest

from ictl.fixtures import FOUR_WORLD_DOC, four_world_model

# marked here rather than in the test files; `pytest -m "not slow"` runs the rest
SLOW = {"tests/test_acceptance.py::test_criterion_08_exhaustive_engine_oracle_equivalence"}


def pytest_collection_modifyitems(items):
    for item in items:
        if item.nodeid in SLOW:
            item.add_marker(pytest.mark.slow)


@pytest.fixture
def four_world():
    return four_world_model()


@pytest.fixture
def four_world_path(tmp_path):
    path = tmp_path / "four_world.json"
    path.write_text(json.dumps(FOUR_WORLD_DOC))
    return str(path)
