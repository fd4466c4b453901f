"""Exception types shared across the package, and the type checks of the JSON readers."""


class QuditStabError(Exception):
    """Base class for all errors raised by this library."""


class InternalInvariant(AssertionError):
    """A computed result failed the library's own consistency check.

    This is a bug, not a bad input.  stage names the check, e.g.
    "oracle.basis" or "analyze.lifts".  It is an AssertionError so that
    callers expecting one keep working, and unlike an assert it survives
    python -O.
    """

    def __init__(self, stage: str, detail: str):
        super().__init__(f"{stage}: {detail}")
        self.stage = stage
        self.detail = detail


def json_int(value, what: str) -> int:
    """value itself when it is an int (and not a bool); TypeError otherwise.

    JSON floats and booleans are rejected rather than coerced, so "d": 4.7
    is not read as 4 nor "d": true as 1.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return value


class MissingKey(KeyError):
    """A key that a JSON object lacks; str() is the message, which names the object, not its repr."""
    __str__ = BaseException.__str__


class _JsonObject(dict):
    __slots__ = ("what",)

    def __missing__(self, key):
        raise MissingKey(f"{self.what} lacks {key!r}")


def json_object(value, what: str) -> dict:
    """A copy of the JSON object value whose missing keys raise MissingKey naming what; TypeError otherwise."""
    if not isinstance(value, dict):
        raise TypeError(f"{what} must be an object, got {value!r}")
    obj = _JsonObject(value)
    obj.what = what
    return obj


def json_str(value, what: str) -> str:
    """value itself when it is a JSON string; TypeError otherwise."""
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a string, got {value!r}")
    return value


class NotFree(QuditStabError):
    """A module expected to be free (or a basis of one) is not."""


class Degenerate(QuditStabError):
    """A form expected to be symplectic has a nonzero kernel."""


class NotFreeSymplectic(QuditStabError):
    """Carrier is not a free symplectic module."""


class NotSymplectic(QuditStabError):
    """Map or form fails to be symplectic."""


class NotIsotropic(QuditStabError):
    """Submodule is not isotropic for the given form."""


class NotLagrangian(QuditStabError):
    """Submodule is not Lagrangian for the given form."""


class DimensionMismatch(QuditStabError):
    """Pauli elements with different (d, n) were combined."""


class NotAbelian(QuditStabError):
    """Two proposed stabiliser generators fail to commute."""

    def __init__(self, pair, value):
        super().__init__(f"generators {pair[0]} and {pair[1]} do not commute (phase {value})")
        self.pair = pair
        self.value = value


class ContainsScalar(QuditStabError):
    """A relation among proposed generators produces a nontrivial scalar."""

    def __init__(self, witness, phase):
        super().__init__(f"relation {witness} yields the scalar zeta^{phase}")
        self.witness = witness
        self.phase = phase


class InconsistentCharacter(QuditStabError):
    """Character values violate a relation among the generators."""


class TooLarge(QuditStabError):
    """State space exceeds the configured oracle bound."""


class BadBound(QuditStabError):
    """The oracle bound is not a positive integer."""


class BadSurface(QuditStabError):
    """Face/side data does not describe a closed oriented surface."""


class Disconnected(QuditStabError):
    """The surface graph is not connected."""


class OddEuler(QuditStabError):
    """Euler characteristic is odd; input is not a closed surface."""


class NotAPath(QuditStabError):
    """Edge steps do not chain into a path."""


class NotADualPath(QuditStabError):
    """Face steps do not chain into a dual path."""


class BadSplit(QuditStabError):
    """Exponent pair (a, b) violates the required divisibility."""


class PathMismatch(QuditStabError):
    """A shift/twist path does not connect the designated vertices."""
