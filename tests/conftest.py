import sys
from collections import Counter

import pytest

from qhayd.zoo import build_entry, zoo_names

_cache = {}


def entry(name):
    if name not in _cache:
        _cache[name] = build_entry(name)
    return _cache[name]


@pytest.fixture(params=zoo_names())
def zoo_entry(request):
    return entry(request.param)


@pytest.fixture
def z2():
    return entry("z2")


@pytest.fixture
def z3():
    return entry("z3")


@pytest.fixture
def s3():
    return entry("s3")


@pytest.fixture
def h4():
    return entry("h4")


@pytest.fixture
def k2w():
    return entry("k2w")


@pytest.fixture
def k3w():
    return entry("k3w")


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(fn, ...)`` returns a Counter of calls by function name.

    Each function is wrapped in every ``qhayd`` module that bound it by
    name, so calls made through ``from .linalg import solve`` count too.
    """

    def counting(fn, counts):
        def wrapper(*args, **kwargs):
            counts[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(*fns):
        counts = Counter()
        for fn in fns:
            wrapper = counting(fn, counts)
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] == "qhayd" and getattr(mod, fn.__name__, None) is fn:
                    monkeypatch.setattr(mod, fn.__name__, wrapper)
        return counts

    return install


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance verdict lines after the run."""
    try:
        from test_acceptance import ACCEPTANCE_LINES
    except ImportError:
        return
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
