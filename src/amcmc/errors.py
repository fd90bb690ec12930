"""Exception types raised by the library.

Every type derives from :class:`AmcmcError`.  Precondition violations also
subclass :class:`ValueError`; numerical failures that can only be detected
after a computation also subclass :class:`ArithmeticError`.
"""


class AmcmcError(Exception):
    """Base of every exception type defined here."""


class DimensionMismatch(AmcmcError, ValueError):
    """Operands have incompatible shapes or state counts."""


class NotIrreducible(AmcmcError, ValueError):
    """The transition graph is not strongly connected."""


class NotInvariant(AmcmcError, ValueError):
    """A kernel does not leave the given distribution invariant."""


class NonUnique(AmcmcError, ArithmeticError):
    """The stationary-distribution system is singular or its solution fails the
    stationarity check."""


class NotSimultaneouslyErgodic(AmcmcError, ArithmeticError):
    """No power of the kernels contracts uniformly, or a certificate fails its curves."""


class CertificateOverflow(AmcmcError, ArithmeticError):
    """A certificate constant, or a bound built on it, exceeds the float range."""


class SingularBeyondCentering(AmcmcError, ArithmeticError):
    """The Poisson system is singular (two or more closed classes) or its
    solution fails the residual or centering check."""


class NegativeBeyondTolerance(AmcmcError, ArithmeticError):
    """A variance came out negative beyond floating-point tolerance."""


class OutOfRangeD(AmcmcError, ValueError):
    """A kernel-change magnitude lies outside [0, 1]."""


class SchemeEscape(AmcmcError, RuntimeError):
    """An adaptation scheme produced a parameter outside its feasible set."""


class DegenerateVariance(AmcmcError, ArithmeticError):
    """The oracle variance is zero but the empirical variance is not."""


class DobrushinViolation(AmcmcError, ValueError):
    """A kernel has one-step contraction coefficient equal to one."""


class GridTooLarge(AmcmcError, ValueError):
    """The requested discretization exceeds the configured state cap."""


class NonPositiveDensity(AmcmcError, ValueError):
    """The target density is not strictly positive on the box."""


class ConfigError(AmcmcError, ValueError):
    """An experiment configuration file is malformed."""
