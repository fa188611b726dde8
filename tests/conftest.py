"""Suite-wide fixtures and the acceptance-criteria summary printer."""

import numpy as np
import pytest

_ACCEPTANCE: dict[int, list] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(index, title): numbered acceptance criterion; each gets a "
        "PASS/FAIL line in the terminal summary")


@pytest.hookimpl(trylast=True)
def pytest_collection_modifyitems(items):
    # Last, so that items deselected with -m are gone and not listed as
    # criteria that were not run.
    for item in items:
        marker = item.get_closest_marker("acceptance")
        if marker is not None:
            index, title = marker.args
            _ACCEPTANCE[index] = [title, None]


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    index = marker.args[0]
    if report.failed:
        _ACCEPTANCE[index][1] = False
    elif report.when == "call" and report.passed:
        _ACCEPTANCE[index][1] = True


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for index in sorted(_ACCEPTANCE):
        title, passed = _ACCEPTANCE[index]
        verdict = {True: "PASS", False: "FAIL", None: "FAIL (not run)"}[passed]
        terminalreporter.write_line(f"criterion {index:2d}: {verdict} - {title}")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
