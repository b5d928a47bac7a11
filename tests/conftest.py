import os
from fractions import Fraction

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden", action="store_true", default=False,
        help="rewrite the golden files instead of comparing against them")


@pytest.fixture
def golden(request):
    """Compare text against a stored golden file (or regenerate it)."""
    regen = request.config.getoption("--regen-golden")

    def check(name, text):
        path = os.path.join(GOLDEN_DIR, name)
        if regen:
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            with open(path, "w") as fh:
                fh.write(text)
            return
        with open(path) as fh:
            assert fh.read() == text, "output differs from golden file %s" % name

    return check


def _is_canonical(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


@pytest.fixture
def canonical():
    """The scalar contract: an int exactly when the value is integral,
    otherwise a Fraction with denominator > 1, never a float or a bool."""
    return _is_canonical
