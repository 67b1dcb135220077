"""Exception types shared across the package."""


class Graph6Error(ValueError):
    """Malformed graph6 input; the message names the offending byte offset."""


class ParameterError(ValueError):
    """Invalid parameters passed to a named graph generator."""


class HypothesisError(ValueError):
    """A theorem hypothesis (connectivity, regularity, valency bound) is violated."""


class ValencyError(HypothesisError):
    """Graph is not regular, or its valency is too small for the operation."""


class DivisibilityError(ArithmeticError):
    """Exact polynomial division left a nonzero remainder.

    This signals a failed algebraic identity, not a numerical problem.
    """
