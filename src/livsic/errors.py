"""Exception hierarchy shared across the package."""


class LivsicError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LivsicError):
    """A defining parameter lies outside its admissible domain
    (typically a point not in the open upper half-plane)."""


class PoleError(LivsicError):
    """Rational function evaluated at (or numerically too close to) a pole."""


class DegenerateError(LivsicError):
    """A Cayley transform collapsed: the would-be denominator vanishes
    identically."""


class NotHerglotzAtomicError(LivsicError):
    """Partial-fraction extraction failed: a pole is complex, repeated, or
    a residue is not a positive real number."""


class NotHerglotzError(LivsicError):
    """A value that must come from a Herglotz function is not finite or has
    a non-positive imaginary part."""


class DimensionError(LivsicError):
    """Operator shapes are inconsistent."""


class SingularResolventError(LivsicError):
    """Resolvent solve refused: the shifted operator A - zI is numerically
    singular or ill-conditioned (sigma_min <= n*eps*sigma_max).  z may lie
    in the spectrum or merely near enough to it for the solve to lose all
    precision; the message gives z, n, sigma_min and sigma_max."""


class IncompatibleError(LivsicError):
    """Two systems cannot be coupled (sign conventions require both
    directing operators to be +1)."""


class RangeError(LivsicError):
    """A numeric argument is outside its required range."""


class FosterSpecError(LivsicError):
    """Foster circuit data violates its invariants (finite values, a
    nonnegative origin weight, positive stage weights, distinct positive
    resonances)."""
