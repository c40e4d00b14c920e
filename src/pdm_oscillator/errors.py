"""Exception types shared across the package, and two bounds the CLI reads without a layer."""

__all__ = [
    "BracketingError",
    "ConvergenceError",
    "DomainError",
    "GridSizeError",
    "LapackUnavailableError",
]

_MIN_GRID_CELLS = 100  # of an oracle.RadialGrid
_MAX_TABLE_LEVELS = 100_000  # of a spectrum table, or of deform's


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach the requested tolerance."""


class BracketingError(RuntimeError):
    """A root bracket could not be established or was inconsistent."""


class GridSizeError(DomainError):
    """A grid has too few cells for the levels asked of it, or too many to solve."""


class LapackUnavailableError(ImportError):
    """numpy's LAPACK lacks a routine that a solver binds."""
