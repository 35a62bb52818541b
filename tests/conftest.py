import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from torusiso import TorusProductSpec

from refvalues import SQRT_PI_RADIUS

SRC = Path(__file__).resolve().parents[1] / "src"


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
