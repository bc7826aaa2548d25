"""Shared fixtures and the acceptance-line reporter.

Acceptance tests register a one-line verdict through the ``acceptance``
fixture; the lines are echoed in the terminal summary so they survive
output capture.
"""

import math

import numpy as np
import pytest

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def acceptance(request):
    """Record a pass line for an acceptance criterion once the test body passed."""

    def _report(criterion: str, detail: str) -> None:
        _ACCEPTANCE_LINES.append(f"ACCEPTANCE {criterion} PASS  {detail}")

    return _report


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def gaussian_prior_grid():
    """Normalized Gaussian prior factory on a span given in standard deviations."""

    def _make(sigma2: float, span: float = 8.0, n: int = 4097):
        from riskbounds import GridDensity

        half = span * math.sqrt(sigma2)
        theta = np.linspace(-half, half, n)
        dens = np.exp(-(theta ** 2) / (2.0 * sigma2))
        return GridDensity(theta, dens)   # the constructor normalizes

    return _make
