"""Helpers shared by the test modules."""


def support(point):
    """1-based indices of the strictly positive coordinates of a lattice point."""
    return tuple(i + 1 for i, value in enumerate(point) if value > 0)
