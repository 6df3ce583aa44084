"""Exception types shared across the package.

Everything user-facing derives from IdCodeError so callers can catch one
base class; most subclasses also derive from ValueError because they signal
bad or infeasible input rather than internal failure.
"""

from __future__ import annotations


class IdCodeError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(IdCodeError, ValueError):
    """A graph or code file could not be parsed.

    Attributes:
        line: 1-based line number of the offending line, or None when the
            problem is not tied to a single line (e.g. missing header).
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class VertexRangeError(IdCodeError, ValueError):
    """A vertex id is outside 0..n-1 for the graph at hand."""


class EdgeError(IdCodeError, ValueError):
    """An edge is malformed: a loop, a duplicate, or not present when required."""


class NotConnectedError(IdCodeError, ValueError):
    """The operation requires a connected graph."""


class NotTriangleFreeError(IdCodeError, ValueError):
    """The operation requires a triangle-free graph.

    Attributes:
        triangle: a witness triple of mutually adjacent vertices.
    """

    def __init__(self, triangle: tuple[int, int, int]):
        self.triangle = triangle
        super().__init__(f"graph contains triangle {triangle}")


class NotIdentifiableError(IdCodeError, ValueError):
    """No identifying code exists: two vertices share a closed neighbourhood.

    Attributes:
        twins: a witness pair of closed twins.
    """

    def __init__(self, twins: tuple[int, int]):
        self.twins = twins
        super().__init__(f"vertices {twins[0]} and {twins[1]} are closed twins")


class NotYIdentifiableError(IdCodeError, ValueError):
    """The candidate set Y cannot identify the target set X.

    Either some target vertex has no candidate in its closed neighbourhood,
    or some target pair cannot be separated by any candidate, which raises
    the subclass NotSeparableError. `witness` is the vertex or pair in
    question.
    """

    def __init__(self, witness: int | tuple[int, int], reason: str):
        self.witness = witness
        self.reason = reason
        super().__init__(f"{reason} (witness {witness})")


class NotSeparableError(NotYIdentifiableError):
    """No subset of the candidate set Y separates the target set X.

    Attributes:
        pair: a witness pair of X-vertices no Y-vertex separates, also
            the witness.
    """

    def __init__(self, pair: tuple[int, int]):
        self.pair = self.witness = pair
        self.reason = "no candidate separates the witness pair"
        # Its own message, not the base class's "reason (witness ...)" form.
        IdCodeError.__init__(
            self, f"no candidate vertex separates {pair[0]} from {pair[1]}"
        )


class NoCycleEdgeError(IdCodeError, ValueError):
    """Every edge of the graph is a bridge (the graph is a forest)."""


class UnknownFamilyError(IdCodeError, ValueError):
    """A family tag does not name a catalog member."""


class UnsupportedCodeFormError(IdCodeError, ValueError):
    """The requested special-form code does not exist for this family member."""


class EdgeAdditionError(IdCodeError, ValueError):
    """An edge addition is inadmissible (exists already, makes a triangle,
    or pushes a degree past the allowed maximum).

    Attributes:
        reason: one of "exists", "triangle", "degree", "loop", "range".
    """

    def __init__(self, reason: str, detail: str):
        self.reason = reason
        super().__init__(detail)


class InvalidDeletionSetError(IdCodeError, ValueError):
    """An explicit edge-deletion set is unusable for the patch pipeline."""


class SearchBudgetError(IdCodeError, RuntimeError):
    """A decision search exhausted its node budget before reaching an answer."""


class GuaranteeError(IdCodeError, RuntimeError):
    """A step of the construction or of the exact search broke a guarantee
    that the paper or the algorithm proves.

    Raised instead of returning a result that the proof does not cover; it
    signals a bug in the package, not bad input.
    """


class BoundMissedError(IdCodeError, RuntimeError):
    """The constructor produced a verified code that misses the size bound.

    The code is still a correct identifying code; only the certified size
    guarantee failed. Attributes carry the evidence.
    """

    def __init__(
        self,
        code: tuple[int, ...],
        bound_num: int,
        bound_den: int,
        detail: str = "",
    ):
        self.code = code
        self.bound_num = bound_num
        self.bound_den = bound_den
        msg = (
            f"code of size {len(code)} exceeds the certified bound "
            f"{bound_num}/{bound_den}"
        )
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)
