"""Exception hierarchy.

Two branches matter for callers: ParameterError means the request itself was
malformed (bad sizes, bad flags, unparseable input), while MathError means the
requested object exists as a request but fails a mathematical check (a map is
not an automorphism, a set is not a difference set, a closure blows up).  The
command line maps ParameterError to exit code 2 and MathError to exit code 3.
"""

from __future__ import annotations


class DiffsetsError(Exception):
    """Base class for all library errors."""


class ParameterError(DiffsetsError):
    """Invalid parameters or unparseable input."""


class MathError(DiffsetsError):
    """A mathematical verification or construction step failed."""


# -- parameter problems -------------------------------------------------------

class EmptyOrders(ParameterError):
    pass


class NonPrimitiveModulus(ParameterError):
    pass


class TooManyLines(ParameterError):
    pass


class IndexNotTwo(ParameterError):
    pass


class RPlusOneNotTwiceOddPrime(ParameterError):
    pass


class NotCoprime(ParameterError):
    pass


class ParseError(ParameterError):
    pass


# -- mathematical failures ----------------------------------------------------

class LiftFailure(MathError):
    pass


class NotHomomorphism(MathError):
    pass


class NotBijective(MathError):
    pass


class ClosureOverflow(MathError):
    pass


class NotASubgroupMember(MathError):
    pass


class ParameterMismatch(MathError):
    pass


class NotClosedUnderInverse(MathError):
    pass


class ForbiddenNotSubgroup(MathError):
    pass


class NotSRG(MathError):
    pass


class DesignNotFixed(MathError):
    pass


class ConditionsFailed(MathError):
    pass


class NotReversible(MathError):
    pass


class DecompositionFailure(MathError):
    pass


class NoValidAlpha(MathError):
    pass


class ReindexObstruction(MathError):
    pass
