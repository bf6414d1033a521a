import sys
from pathlib import Path

import pytest

from abcgroups.enumeration import enumerate_ball
from abcgroups.groups import LamplighterContext

sys.path.insert(0, str(Path(__file__).parent))

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


@pytest.fixture(scope="session")
def lamp18():
    """lamplighter:2 and its radius-18 ball, shared by the acceptance gate
    and the closed-form word-length check."""
    ctx = LamplighterContext(2)
    return ctx, enumerate_ball(ctx, 18)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
