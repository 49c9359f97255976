"""Prints one PASS/FAIL line per acceptance criterion after the run."""

import pytest
from hypothesis import settings

_acceptance_reports = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    doc = item.function.__doc__ or item.name
    report.acceptance_label = doc.strip().splitlines()[0]
    _acceptance_reports.append(report)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_reports:
        return
    terminalreporter.section("acceptance criteria")
    for report in _acceptance_reports:
        status = "PASS" if report.passed else "FAIL"
        terminalreporter.write_line(
            f"ACCEPTANCE {status}: {report.acceptance_label}")


# tests/test_fe_model.py's state machine: "fe-model" in tier-1, and
# "fe-model-deep" when a run passes --hypothesis-profile fe-model-deep.
settings.register_profile("fe-model", max_examples=60, stateful_step_count=30,
                          deadline=None)
settings.register_profile("fe-model-deep", max_examples=400, stateful_step_count=60,
                          deadline=None)

# tests/test_protocol.py::TestWholeRuns: "whole-run" in tier-1, and
# "whole-run-deep" when a run passes --hypothesis-profile whole-run-deep.
settings.register_profile("whole-run", max_examples=100, deadline=None)
settings.register_profile("whole-run-deep", max_examples=2000, deadline=None)
