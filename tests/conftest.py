import json

import pytest
from hypothesis import settings

# `pytest --hypothesis-profile=ci`: more examples, no per-example deadline on
# shared runners; tests that set their own settings keep them
settings.register_profile("ci", max_examples=500, deadline=None)

_NUMBERS_PATH = pytest.StashKey()


@pytest.fixture(scope="session")
def record_numbers(request, tmp_path_factory):
    """record(criterion, **numbers) writes an acceptance criterion's measured
    numbers to <basetemp>/acceptance_numbers.json, one key per criterion, so
    a change that moves a number shows as a diff of two such files."""
    path = tmp_path_factory.getbasetemp() / "acceptance_numbers.json"
    request.config.stash[_NUMBERS_PATH] = path
    numbers = {}

    def record(criterion: str, **values):
        numbers[criterion] = values
        path.write_text(json.dumps(numbers, indent=2, sort_keys=True) + "\n")

    return record


def pytest_terminal_summary(terminalreporter, config):
    path = config.stash.get(_NUMBERS_PATH, None)
    if path is not None and path.exists():
        terminalreporter.write_line(f"acceptance numbers: {path}")
