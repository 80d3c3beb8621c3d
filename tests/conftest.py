import random
import re
import sys

import pytest
from hypothesis import settings

from planebranch import branch, poly

settings.register_profile("suite", deadline=None, max_examples=80)
settings.load_profile("suite")

# filled by test_acceptance, shown after the test summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    def key(line):
        m = re.search(r"criterion (\d+)", line)
        return int(m.group(1)) if m else 0
    for line in sorted(ACCEPTANCE_LINES, key=key):
        terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return random.Random(20260825)


@pytest.fixture
def digit_limit():
    """The interpreter's limit on digits in int <-> str, pinned to its default."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.fixture
def am_runs(monkeypatch):
    """The exponents of branch.approximate_root's calls, once the record of
    the last certified branch is emptied.  An Abhyankar-Moh run calls it
    once per level, with the gcds l_0, ..., l_(g-1), and a memo hit never:
    [4, 2] is one run on a branch with semigroup <4, 6, 13>."""
    monkeypatch.setattr(poly, "_certified", ((), None, 1, []))
    calls = []
    root = branch.approximate_root
    monkeypatch.setattr(branch, "approximate_root", lambda f, p: calls.append(p) or root(f, p))
    return calls
