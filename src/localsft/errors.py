"""Exception hierarchy shared by all calculators.

Every exception carries a short machine-parsable ``code`` used by the CLI
for its single-line error reports and exit-status mapping.
"""

from __future__ import annotations


class LocalSFTError(Exception):
    """Base class for all library errors."""

    code = "E_ERROR"


class IterateOutOfRange(LocalSFTError):
    """Iterate exceeds the declared validity bound of an elliptic orbit."""

    code = "E_ITERATE_RANGE"


class BadOrbit(LocalSFTError):
    """Requested a p/q variable for a bad orbit iterate."""

    code = "E_BAD_ORBIT"


class InconsistentProfile(LocalSFTError):
    """Cover asymptotics do not match the base curve and degree."""

    code = "E_PROFILE"


class NotImmersed(LocalSFTError):
    """Operation requires an immersed base curve."""

    code = "E_NOT_IMMERSED"


class HypothesesViolated(LocalSFTError):
    """The hypotheses of the obstruction-bundle rank formula fail."""

    code = "E_HYPOTHESIS"


class OddChern(LocalSFTError):
    """Normal Chern number bookkeeping received parity-inconsistent data."""

    code = "E_ODD_CHERN"


class DegreeTooLarge(LocalSFTError):
    """Hurwitz count requested above its degree or branch-point bound."""

    code = "E_DEGREE_BOUND"


class RegistryMismatch(LocalSFTError):
    """Series over incompatible variable registries or truncations."""

    code = "E_REGISTRY"


class DegreeMismatch(LocalSFTError):
    """Substitution image is not homogeneous of the variable's degree."""

    code = "E_DEGREE"


class NotHomogeneous(DegreeMismatch, ValueError):
    """The degree of a series with terms of several degrees was asked for."""


class TruncationOverflow(LocalSFTError):
    """Substitution cannot preserve correctness up to the truncation order, or a
    monomial has more letters than its packed fields hold."""

    code = "E_TRUNCATION"


class InvalidTruncation(LocalSFTError, ValueError):
    """A series truncation order below 1, or a composition order below 0."""

    code = "E_TRUNCATION_ORDER"


class InvalidOrbit(LocalSFTError, ValueError):
    """Reeb orbit or orbit iterate data out of its domain."""

    code = "E_ORBIT"


class InvalidVariable(LocalSFTError, ValueError):
    """A series variable with an unknown kind or side."""

    code = "E_VARIABLE"


class InvalidCover(LocalSFTError, ValueError):
    """Base curve, cover or neck data out of its domain."""

    code = "E_COVER"


class InvalidTable(LocalSFTError, ValueError):
    """Count-table context or provenance out of its domain."""

    code = "E_TABLE"


class InvalidGenus(LocalSFTError, ValueError):
    """A negative surface genus."""

    code = "E_GENUS"


class InadmissibleKey(LocalSFTError):
    """Count-table key fails multiplicity or parity admissibility."""

    code = "E_KEY"


class NoFormalSolution(LocalSFTError):
    """Constraint system of the composition failed to stabilize."""

    code = "E_NO_SOLUTION"

    def __init__(self, message: str, obstructions: dict | None = None):
        super().__init__(message)
        self.obstructions = obstructions or {}


class PipelineHypothesis(LocalSFTError):
    """A step of the descendant-count pipeline has failing preconditions."""

    code = "E_PIPELINE"


class NotElliptic(LocalSFTError):
    """Splitting equations require an elliptic breaking orbit."""

    code = "E_NOT_ELLIPTIC"


class NotMorse(LocalSFTError):
    """All breaking orbits must be Morse nondegenerate."""

    code = "E_NOT_MORSE"


class NotExceptional(LocalSFTError):
    """Curve data is inconsistent with an exceptional sphere."""

    code = "E_NOT_EXCEPTIONAL"


class ConfigError(LocalSFTError):
    """Config document failed to parse or resolve."""

    code = "E_PARSE"

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f" col {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


#: Errors that signal "a theorem's hypotheses do not apply" rather than bad input.
HYPOTHESIS_ERRORS = (
    HypothesesViolated,
    PipelineHypothesis,
    NotElliptic,
    NotMorse,
    NotExceptional,
    NoFormalSolution,
)
