"""Volume lists for the tests and the golden fixtures.

They are built by the CLI's own grid builder, ``cli.parse_grid``, from the
``repr`` of their ends, which round-trips: a list here has exactly the bits
of ``--grid lo:hi:count``. ``parse_grid`` is pure Python, so no list
depends on numpy or on the CPU features it dispatches to.
"""

from torusiso import cli


def log_grid(lo: float, hi: float, count: int) -> list[float]:
    """``count`` log-spaced volumes from ``lo`` to ``hi``, both ends included."""
    return cli.parse_grid(f"{lo!r}:{hi!r}:{count}")
