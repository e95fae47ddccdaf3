"""Exception types shared across the package.

Every error raised on bad input derives from NfaIndexError; callers that
want a single catch point (the CLI does) can use the base class.
InternalInvariantViolation is different in kind: it signals that a result
failed one of the library's own guaranteed properties, i.e. a bug, never
bad input.
"""


class NfaIndexError(Exception):
    """Base class for all input-related errors raised by this package."""


class NfaSyntaxError(NfaIndexError):
    """Malformed line in the automaton text format."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(NfaIndexError):
    """Structurally well-formed input that violates an automaton invariant."""


class UnknownLabel(NfaIndexError):
    """A label outside the automaton's alphabet was used."""


class UnknownFixture(NfaIndexError):
    """Fixture name not recognised by gen_fixture / the CLI."""


class InvalidParameter(NfaIndexError):
    """Generator or command parameter outside its documented range."""


class PartitionMismatch(NfaIndexError):
    """A partition argument does not match the relation it was paired with."""


class QuotientInvalid(NfaIndexError):
    """The quotient under a partition violates an automaton invariant."""


class SizeMismatch(NfaIndexError):
    """A relation and an automaton (or two relations) disagree on size."""


class NotPreorder(NfaIndexError):
    """Operation requires a reflexive transitive relation; witness attached."""

    def __init__(self, witness: tuple[int, int, int]):
        u, v, w = witness
        super().__init__(
            f"relation is not transitive: ({u},{v}) and ({v},{w}) present, ({u},{w}) absent"
        )
        self.witness = witness


class EqualPair(NfaIndexError):
    """Pair-level query asked about (u, u); only distinct pairs are defined."""


class TooLarge(NfaIndexError):
    """Input exceeds a stated size limit: the exhaustive-search bound of a
    brute-force oracle, or the state limit of dense n x n storage."""


class InternalInvariantViolation(Exception):
    """A computed result failed a property the library guarantees.

    Deliberately not a NfaIndexError: this is a bug indicator, not an
    input problem, and maps to its own CLI exit code.
    """
