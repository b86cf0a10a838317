"""Exception types shared across the package.

Every domain error derives from TametoriError so callers (and the CLI) can
distinguish bad input from genuine identity failures, which are reported as
data, never raised.
"""


class TametoriError(Exception):
    """Base class for all domain errors."""


class TameViolation(TametoriError):
    """The residue characteristic divides the ramification index."""


class SearchExhausted(TametoriError):
    """No splitting residue degree found below the search cap."""


class NotASubgroup(TametoriError):
    """A purported subgroup is not closed, or misses a required subgroup."""


class DimensionMismatch(TametoriError):
    """The algebra degree m*d does not match the torus degree e*f."""


class NotTwoTorsion(TametoriError):
    """A Brauer class expected to be 2-torsion is not."""


class CriterionViolation(TametoriError):
    """A symmetric orbit fell outside the j in {0, f/2} dichotomy."""


class UnramifiedViolation(TametoriError):
    """The bottom tower subfield E_0 does not make E/E_0 unramified."""


class NonStrictTower(TametoriError):
    """Consecutive tower subgroups are equal."""


class NonIncreasingLevels(TametoriError):
    """Tower jump levels are not strictly increasing positive integers."""


class IndexOutOfRange(TametoriError, IndexError):
    """A tower index k is outside -1..t-1."""


class NotSymmetric(TametoriError):
    """An operation defined only for symmetric orbits got an asymmetric one."""


class NotInSubfield(TametoriError):
    """A root-of-unity exponent does not lie in the requested subfield."""


class NotNormOne(TametoriError):
    """An element expected in the norm-one subgroup k^1 is not there."""


class IotaIncoherence(TametoriError):
    """The transfer sign iota contradicts a module isomorphism at depth >= 0."""


class InvariantViolation(TametoriError):
    """Derived data contradicts an identity it satisfies by construction."""
