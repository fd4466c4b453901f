"""Always print one pass/fail line per acceptance criterion."""

import pytest

# helpers check with plain assert; rewriting keeps those checks under python -O
pytest.register_assert_rewrite("tests.helpers")

_LABELS: dict[str, str] = {}
_RESULTS: dict[str, str] = {}


def pytest_collection_modifyitems(items):
    for item in items:
        marker = item.get_closest_marker("criterion")
        if marker:
            num, name = marker.args
            _LABELS[item.nodeid] = f"criterion {num} ({name})"


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.nodeid in _LABELS:
        _RESULTS[item.nodeid] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid, label in _LABELS.items():
        if nodeid in _RESULTS:
            terminalreporter.write_line(f"{label}: {_RESULTS[nodeid]}")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, name): acceptance criterion metadata"
    )
