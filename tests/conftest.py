import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


class _NumpyBlocker:
    """A meta-path finder that refuses every import of numpy."""

    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ModuleNotFoundError(f"import of {name} blocked", name=name)
        return None


# A run that blocks numpy with sys.modules["numpy"] = None shows that the
# suite needs none. Hypothesis takes any "numpy" key for a loaded numpy and
# imports numpy.random to seed it, so swap the key for a finder that keeps
# numpy just as unimportable.
if "numpy" in sys.modules and sys.modules["numpy"] is None:
    del sys.modules["numpy"]
    sys.meta_path.insert(0, _NumpyBlocker)

from torusiso import TorusProductSpec, profiles

from refvalues import SQRT_PI_RADIUS

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(autouse=True)
def clear_spec_caches():
    """Each test starts with every per-spec cache empty; returns the clearing step.

    No test then reads a report or profile another test cached, and a test
    that patches a solver under full_report sees its patch. A test that needs
    the caches emptied again takes this fixture and calls it.
    """

    def clear():
        for cached in profiles._cached_builders:
            cached.cache_clear()

    clear()
    return clear


@pytest.fixture
def example_spec():
    """The square torus of area 4*pi crossed with R^2."""
    return TorusProductSpec((SQRT_PI_RADIUS, SQRT_PI_RADIUS), 2)


@pytest.fixture
def unit_spec():
    """The unit-radius square torus crossed with R^2."""
    return TorusProductSpec((1.0, 1.0), 2)


@pytest.fixture
def unit_spec3():
    """The unit-radius cubic torus crossed with R^2."""
    return TorusProductSpec((1.0, 1.0, 1.0), 2)


@pytest.fixture(scope="session")
def fresh_python():
    """Run Python source in a new interpreter with src/ on its path; returns stdout.

    For checks that depend on what a cold process has imported.
    """

    def run(source: str) -> str:
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        result = subprocess.run(
            [sys.executable, "-c", source],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    return run
