import pytest

import _verdicts


def pytest_collection_modifyitems(config, items):
    # the Monte Carlo acceptance criteria take about a minute; `-m "not slow"`
    # leaves the quick unit suites
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.slow)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _verdicts.LINES:
        terminalreporter.section("acceptance criteria")
        for line in _verdicts.LINES:
            terminalreporter.write_line(line)
