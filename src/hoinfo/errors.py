"""Semantic exception hierarchy.

Public functions never raise bare ValueError/KeyError for contract
violations; every failure mode has a named class so callers (and the CLI
exit-code mapping) can dispatch on type.

Every message, and every warning the package gives, quotes a value a
caller gave through one rule, ``distribution._quote``: an int in decimal
below 10**18 in magnitude and rounded to six digits beyond, a list or
tuple element by element, anything else by its repr (or its type's name
where repr fails), and the whole cut at
a fixed length that it names. No message holds a ``!r`` of an outside
value (``tests/test_error_text.py`` checks this).
"""

from __future__ import annotations


class HoinfoError(Exception):
    """Base class for all errors raised by this package."""


class NotNormalizedError(HoinfoError, ValueError):
    """Probability masses do not sum to 1 within the configured tolerance."""


class NegativeMassError(HoinfoError, ValueError):
    """A probability mass is negative."""


class NonFiniteMassError(HoinfoError, ValueError):
    """A probability mass is NaN or infinite."""


class StateOutOfRangeError(HoinfoError, ValueError):
    """A joint state has a coordinate outside its variable's alphabet."""


class TableTooLargeError(HoinfoError, ValueError):
    """The requested table exceeds the configured size cap."""


class EmptySubsetError(HoinfoError, ValueError):
    """A variable subset that must be non-empty is empty."""


class IndexOutOfRangeError(HoinfoError, IndexError):
    """A variable index is outside [0, n_vars)."""


class OverlappingSubsetsError(HoinfoError, ValueError):
    """Two variable subsets that must be disjoint share an index."""


class SystemTooSmallError(HoinfoError, ValueError):
    """The measure is undefined for systems with fewer than two variables."""


class EmptyInputError(HoinfoError, ValueError):
    """An input collection that must be non-empty is empty."""


class MalformedInputError(HoinfoError, ValueError):
    """An input value has the wrong type or shape, such as a state
    coordinate that is not an integer or a mass that is not a number."""


class RaggedRowsError(HoinfoError, ValueError):
    """Sample rows do not all have the same number of columns."""


class InvalidOrderError(HoinfoError, ValueError):
    """A generator was asked for an order/alphabet outside its domain."""


class FunctionalNegativeError(HoinfoError, ValueError):
    """A plug-in functional returned a negative or non-finite value."""


class FunctionalNonMonotoneError(HoinfoError, ValueError):
    """A plug-in functional increased under marginalization."""
