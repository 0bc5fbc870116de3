import pytest
from hypothesis import settings

# CI runs `pytest --hypothesis-profile=ci`: the same examples on every run,
# and a failure prints the blob that replays it with @reproduce_failure
settings.register_profile("ci", derandomize=True, print_blob=True)

_criterion_lines = []


@pytest.fixture
def criterion():
    """Recorder for acceptance-criterion verdict lines.

    Lines land in a dedicated terminal section after the run so they stay
    visible even though pytest captures test stdout.
    """
    def record(no, ok, detail):
        line = f"criterion {no} {'PASS' if ok else 'FAIL'}: {detail}"
        _criterion_lines.append(line)
        print(line)
        return line
    return record


def pytest_terminal_summary(terminalreporter):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_criterion_lines):
            terminalreporter.write_line(line)
