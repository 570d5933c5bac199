"""Exception hierarchy shared by all modules."""


class JordanLabError(Exception):
    """Base class for every error raised by this package."""


class ModulusMismatch(JordanLabError):
    """Roots of unity of different moduli were combined without an explicit embed."""


class NoRootsOfUnity(JordanLabError):
    """The requested group of roots of unity does not exist in the field."""


class BadGenerator(JordanLabError):
    """The supplied field element does not have the required multiplicative order."""


class BadDelta(JordanLabError):
    """Elementary-divisor chain is malformed (d_{i+1} must divide d_i, all >= 1)."""


class GroupMismatch(JordanLabError):
    """Operands belong to different finite abelian groups."""


class BudgetExceeded(JordanLabError):
    """An enumeration would exceed the configured element budget."""


class NotASubgroup(JordanLabError):
    """Element set is not closed under the group operation."""


class NotIsotropic(JordanLabError):
    """Subgroup fails the isotropy condition for the pairing."""


class OffCurve(JordanLabError):
    """Coordinates do not satisfy the curve equation."""


class NotTorsion(JordanLabError):
    """Point is not killed by the requested multiplier."""


class EvalAtSupport(JordanLabError):
    """Function evaluation hit a zero or pole of the factored representation."""


class DegenerateAfterRetries(JordanLabError):
    """All retried auxiliary offsets produced support collisions."""


class LevelMismatch(JordanLabError):
    """Theta elements live on different curves or at different levels."""


class ZeroScale(JordanLabError):
    """Theta elements require a nonzero scale."""


class NonConstantCommutator(JordanLabError):
    """Commutator function failed to be constant; signals an implementation bug."""


class ScaleNotRootOfUnity(JordanLabError):
    """Theta element scale lies outside the allowed roots of unity."""


class BasisMismatch(JordanLabError):
    """Supplied basis does not support the structure transport."""


class NotAdmissible(JordanLabError):
    """Curve does not carry the structure required at this level."""


class CurveMismatch(JordanLabError):
    """Operands are defined over different curves."""


class Undefined(JordanLabError):
    """Birational map is undefined at the sample point."""


class CertificateError(JordanLabError):
    """A certified identity failed to hold; signals an implementation bug, never bad input."""


class BadArgument(JordanLabError):
    """A command-line argument is out of range or inconsistent with the others."""
