"""Exception hierarchy shared by all tysys modules."""


class TysysError(Exception):
    """Base class for all library-specific failures."""


class NotGeneralizedCartan(TysysError, ValueError):
    """Matrix violates the generalized Cartan axioms."""


class NotSymmetrizable(TysysError, ValueError):
    """Ratio propagation over the adjacency graph is inconsistent."""


class NotTamelyLaced(TysysError, ValueError):
    """Operation requires a tamely laced Cartan matrix."""


class NotSimplyLaced(TysysError, ValueError):
    """Operation requires a simply laced Cartan matrix."""


class NotBipartite(TysysError, ValueError):
    """Operation requires a bipartite adjacency graph."""


class AlreadyBipartite(TysysError, ValueError):
    """Bipartite doubling is only defined for nonbipartite matrices."""


class Disconnected(TysysError, ValueError):
    """Operation requires a connected adjacency graph."""


class NoParity(TysysError, ValueError):
    """Exchange matrix carries no parity split."""


class ConditionsViolated(TysysError, ValueError):
    """Exchange matrix fails the parity/mutation compatibility conditions."""


class DivisionByZeroPoly(TysysError, ZeroDivisionError):
    """Division by the zero polynomial."""


class InverseOfZero(TysysError, ZeroDivisionError):
    """Multiplicative inverse of an exact zero."""


class EvalDivisionByZero(TysysError, ZeroDivisionError):
    """Denominator vanishes at the evaluation point."""


class LevelOutOfRange(TysysError, ValueError):
    """Variable level outside the admissible range of the system."""


class EmptyWindow(TysysError, ValueError):
    """Spectral window contains no slice."""


class MissingValue(TysysError, KeyError):
    """A value table does not cover a required variable."""

    def __init__(self, var):
        super().__init__(var)
        self.var = var

    def __str__(self):
        return f"missing value for {self.var}"


class ZeroDivisor(TysysError, ArithmeticError):
    """An exact zero appeared where a unit is required while solving."""


class DegenerateData(ZeroDivisor):
    """A given value leaves a solved value zero or undefined whatever the
    free data: resampling cannot help, so the solve raises at once."""


class UnschedulableDependency(TysysError, RuntimeError):
    """Slice-major propagation needs a value at a not-yet-filled slice."""

    def __init__(self, var, message=""):
        super().__init__(message or f"unschedulable dependency on {var}")
        self.var = var


class WindowTooNarrow(TysysError, ValueError):
    """Reconstruction schedule runs off the available window."""

    def __init__(self, var, message=""):
        super().__init__(message or f"window too narrow: first missing variable {var}")
        self.var = var
