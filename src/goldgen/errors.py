"""Exception hierarchy shared across the package."""


class GoldgenError(Exception):
    """Base class for all numerical / structural failures.

    `level`: the generation level that failed, 0 = the output coordinates
    and the model's depth = the seed's (None when unknown or not a model's).
    A layer that knows the level sets it on the exception and re-raises it.
    """

    def __init__(self, *args, level=None):
        super().__init__(*args)
        self.level = level


def failure_text(e: GoldgenError) -> str:
    """`<Type> (level j): <message>`, without the level when it has none."""
    level = "" if e.level is None else f" (level {e.level})"
    return f"{type(e).__name__}{level}: {e}"


class DegenerateZeros(GoldgenError):
    """Two zeros (or positions) closer than the separation tolerance."""


class RootSolveFailed(GoldgenError):
    """Simultaneous root iteration did not converge within the sweep budget."""


class CollisionError(GoldgenError):
    """Particles approached closer than sep_tol during dynamics."""


class NonFiniteState(GoldgenError):
    """A state, acceleration or closed-form path left the floating-point range."""


class StepSizeUnderflow(GoldgenError):
    """Adaptive integrator step size fell below the representable minimum."""


class TreeBudgetExceeded(GoldgenError):
    """Requested generation tree exceeds the configured node budget."""


class TrackingAmbiguity(GoldgenError):
    """Continuity tracking of zero paths is not well-posed on this grid,
    even after refinement.

    `intervals` holds the index i of every step from time i to time i + 1
    whose frames failed the tracking certificate (empty when none was
    checked).
    """

    def __init__(self, msg, intervals=(), level=None):
        super().__init__(msg, level=level)
        self.intervals = intervals


class NoPeriodFound(GoldgenError):
    """No period multiple p <= p_max matched within tolerance."""


class DegenerateModes(GoldgenError):
    """Confluent characteristic roots in a closed-form two-mode solution."""
