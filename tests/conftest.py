import json

import pytest

from ictl.fixtures import FOUR_WORLD_DOC, four_world_model

# marked here rather than in the test files; `pytest -m "not slow"` runs the rest
SLOW = {
    "tests/test_acceptance.py::test_criterion_08_exhaustive_engine_oracle_equivalence",
    "tests/test_gen.py::TestFrameEnumerator::test_every_four_world_frame",
    "tests/test_syntax.py::TestReference::test_parser_matches_reference",
    "tests/test_evidence.py::TestEvidenceMatchesReference::test_2000_world_cycle",
    "tests/test_shared_nothing.py::test_sweep_columns_height_three",
}


def pytest_collection_modifyitems(items):
    modules = {}
    for item in items:
        if item.nodeid in SLOW:
            item.add_marker(pytest.mark.slow)
        modules.setdefault(item.nodeid.split("::")[0], getattr(item, "module", None))
    # a renamed slow test would silently lose its marker: each SLOW id must
    # name a test of its file whenever that file is collected
    for nodeid in sorted(SLOW):
        path, *names = nodeid.split("[")[0].split("::")
        if path not in modules:
            continue
        obj = modules[path]
        for name in names:
            obj = getattr(obj, name, None)
        if obj is None:
            raise pytest.UsageError(f"tests/conftest.py SLOW names {nodeid}, which {path} does not define")


@pytest.fixture
def four_world():
    return four_world_model()


@pytest.fixture
def four_world_path(tmp_path):
    path = tmp_path / "four_world.json"
    path.write_text(json.dumps(FOUR_WORLD_DOC))
    return str(path)
