"""Exception types raised across the package.

Every error that code in this package raises deliberately derives from
:class:`BimodfusionError`, so callers (and the CLI) can distinguish "the
input data is bad / the math said no" from genuine bugs.
"""
from __future__ import annotations


class BimodfusionError(Exception):
    """Base class for all package errors."""


class ParseError(BimodfusionError):
    """A document (category, algebra, ...) is malformed."""


class InvalidTolerance(BimodfusionError):
    """The numerical tolerance is not a finite positive number at most
    ``mtc.MAX_TOL``."""


class ShapeError(BimodfusionError):
    """Component data has the wrong shape for the declared objects."""


class MissingSymbol(BimodfusionError):
    """An F or R entry required by a nonzero fusion channel is absent."""


class AxiomViolation(BimodfusionError):
    """A coherence axiom fails beyond tolerance.

    Attributes
    ----------
    identity:
        Name of the violated identity (e.g. ``"pentagon"``).
    max_residual:
        Largest absolute residual found for that identity.
    residuals:
        Mapping of identity name to max residual for everything checked.
    """

    def __init__(self, identity: str, max_residual: float, residuals: dict | None = None):
        self.identity = identity
        self.max_residual = max_residual
        self.residuals = dict(residuals or {})
        super().__init__(f"{identity} violated: max residual {max_residual:.3e}")


class UnknownCatalogName(BimodfusionError):
    """Requested built-in category does not exist."""


class TypeMismatch(BimodfusionError):
    """Morphisms or diagram nodes have incompatible source/target words."""


class DiagramSyntaxError(BimodfusionError):
    """The diagram DSL text does not parse.

    Carries the 1-based ``line`` and ``col`` of the offending token.
    """

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{message} (line {line}, col {col})")


class UnboundSymbol(BimodfusionError):
    """A named morphism in a diagram has no binding in the environment."""


class NonSovereignGauge(BimodfusionError):
    """Left and right traces of identities disagree; duality data unusable."""


class NotSpecial(BimodfusionError):
    """m∘Δ is not proportional to the identity (or dim A = 0)."""


class NotIntertwiner(BimodfusionError):
    """A supplied morphism fails to commute with the module actions."""


class NonIntegerDim(BimodfusionError):
    """A Hom-space dimension came out non-integral beyond tolerance."""


class NonIntegerStructureConstant(BimodfusionError):
    """A fusion structure constant came out non-integral beyond tolerance."""


class IdempotentSplitFailure(BimodfusionError):
    """The tensor-product idempotent has eigenvalues away from {0, 1}."""


class DecompositionIncomplete(BimodfusionError):
    """Simple-object decomposition failed to exhaust the category."""


class SingularD(BimodfusionError):
    """The block-diagonalization matrix is not invertible."""
