"""Exception types shared across the package."""


class G2KitError(Exception):
    """Base class for all package errors."""


class ConfigMismatchError(G2KitError):
    """Operands built over different field configurations."""


class PrecisionError(G2KitError):
    """A result needs coefficients outside the representable window."""


class DomainError(G2KitError):
    """Input outside the stated domain of an operation."""


class WitnessError(G2KitError):
    """A caller-supplied certificate failed exact verification.  When a
    validate report is behind it, violations lists its failed clauses."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = list(violations)


class DoublingError(G2KitError):
    """Doubling attempted with an isotropic or non-orthogonal element."""


class KindError(G2KitError):
    """A subalgebra of the wrong kind was passed."""


class PairError(G2KitError):
    """An isotropic pair violates its preconditions."""


class LiftError(G2KitError):
    """Invalid data passed to a Lie-algebra lift."""


class TripleError(G2KitError):
    """A triple expected to satisfy the triality identity does not."""


class VolumeError(G2KitError):
    """A norm with nonzero normalized volume where zero is required."""


class DualityError(G2KitError):
    """A norm expected to be self-dual is not, or a form is degenerate."""


class SingularError(G2KitError):
    """A matrix required to be invertible is singular."""


class MembershipError(G2KitError):
    """An element lies outside the required lattice or subgroup."""
