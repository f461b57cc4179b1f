"""Exception taxonomy shared across the package.

Every exception carries a stable ``code`` string so the command line tool can
report machine-readable diagnostics, and the ``exit`` code that tool ends
with.  The hierarchy groups errors by how a caller should react: bad input
(exit 2), an operation whose mathematical hypotheses the model fails to meet
(exit 1), or an internal soundness check that should never fire (exit 3).
"""


class SullivanError(Exception):
    """Base class for all package errors; input and budget problems unless a
    subclass says otherwise."""

    code = "error"
    exit = 2


class InvalidModel(SullivanError):
    """Structurally broken model: bad degree, duplicate name, foreign generator;
    ``generator`` names the offending generator when one is."""

    code = "invalid-model"

    def __init__(self, message, generator=None):
        super().__init__(message)
        self.generator = generator


class InvalidInput(SullivanError):
    """An argument outside an operation's domain (wrong shape, not a combination, ...)."""

    code = "invalid-input"


class UnknownGenerator(SullivanError):
    code = "unknown-generator"


class GeneratorMismatch(SullivanError):
    """Elements over incompatible generator sets were combined."""

    code = "generator-mismatch"


class ModelSyntaxError(SullivanError):
    """Model file rejected by the parser; carries a 1-based line number."""

    code = "syntax"

    def __init__(self, message, line=None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


# --- validation failures (the model is not a Sullivan minimal model) ---

class ValidationError(SullivanError):
    code = "validation"

    def __init__(self, generator, message):
        super().__init__(message)
        self.generator = generator


class DegreeMismatch(ValidationError):
    code = "degree-mismatch"


class NotMinimal(ValidationError):
    code = "not-minimal"


class DifferentialNotSquareZero(ValidationError):
    code = "differential-not-square-zero"


# --- hypothesis failures (valid model, inapplicable operation) ---

class ApplicabilityError(SullivanError):
    """A negative mathematical result: the input is fine, the structure asked
    for does not exist or a hypothesis fails."""

    code = "not-applicable"
    exit = 1


class NotPure(ApplicabilityError):
    code = "not-pure"


class NotElliptic(ApplicabilityError):
    code = "not-elliptic"


class NonConstantLength(ApplicabilityError):
    code = "non-constant-length"


class NotDifferentialIdeal(ApplicabilityError):
    code = "not-differential-ideal"


class NotClosedUnderDifferential(ApplicabilityError):
    code = "not-closed-under-differential"


class SubModelNotClosed(ApplicabilityError):
    code = "sub-model-not-closed"


class SubModelNotPure(ApplicabilityError):
    code = "sub-model-not-pure"


class EvenMismatch(ApplicabilityError):
    code = "even-mismatch"


class NotFiniteDimensional(ApplicabilityError):
    code = "not-finite-dimensional"


# --- polynomial-layer input errors ---

class OddGeneratorPresent(SullivanError):
    """An even-polynomial operation received an element with odd factors."""

    code = "odd-generator-present"


class ConstantTermPresent(SullivanError):
    """A regular-sequence candidate has a constant term."""

    code = "constant-term-present"


class ZeroElement(SullivanError):
    code = "zero-element"


# --- search and internal soundness ---

class SearchSpaceTooLarge(SullivanError):
    """The configured candidate cap was reached before the search finished."""

    code = "search-space-too-large"


class VerificationFailed(SullivanError):
    """An internal certificate or soundness check failed; indicates a bug."""

    code = "verification-failed"
    exit = 3
