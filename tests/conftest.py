import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

_ACCEPTANCE_RESULTS: list[tuple[str, str]] = []


def _build() -> str:
    # golden digests and byte-identical reruns hold on one numpy build, so a
    # failure log names the build and the BLAS thread count it ran with
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"numpy {np.__version__}, OPENBLAS_NUM_THREADS={threads}"


def pytest_report_header(config):
    return _build()


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    if "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    _ACCEPTANCE_RESULTS.append((name, report.outcome.upper()))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    # -q, as CI runs, hides the report header
    terminalreporter.write_sep("-", f"acceptance criteria ({_build()})")
    for name, outcome in _ACCEPTANCE_RESULTS:
        status = "PASS" if outcome == "PASSED" else outcome
        terminalreporter.write_line(f"{status}  {name}")
