"""Exception taxonomy shared across the package.

Every error raised by the library derives from StefanError so callers can
catch library failures without catching programming errors.  The hierarchy
separates bad inputs (InvalidInput and friends) from numerical failures
(NonConvergence and friends): the CLI maps the former to config errors and
the latter to solver errors.
"""

from __future__ import annotations


class StefanError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(StefanError):
    """A physical or configuration parameter violates its documented range."""


class OutOfRange(StefanError):
    """A requested value lies outside the range of a monotone function."""


class OutOfDomain(StefanError):
    """A space-time query point lies outside the liquid region."""


class NotBracketed(StefanError):
    """A root-finding bracket does not straddle the target value."""


class MaxSubdivisionsExceeded(StefanError):
    """Adaptive quadrature hit its subdivision depth limit before converging."""


class NonConvergence(StefanError):
    """An iterative scheme exhausted its iteration budget."""


class FrontCollapse(StefanError):
    """The numerical free boundary stopped advancing or moved backwards."""


class MismatchedProblem(StefanError):
    """Two artifacts being compared were produced from different problems."""


class ConfigError(StefanError):
    """A run configuration file is malformed or names unknown keys."""
