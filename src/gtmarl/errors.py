"""Exception types shared across the toolkit, and the cap on what a run records.

The CLI maps these onto process exit codes: malformed input files -> 2,
violated preconditions -> 3, numerical faults -> 4.
"""

MAX_RECORDED_ENTRIES = 10**7  # array entries one run may record or buffer


class GameFormatError(ValueError):
    """A game description (JSON document or raw tensors) is malformed."""


class SpecError(ValueError):
    """A call violates a documented precondition."""


def check_recorded(entries: int, **sizes) -> None:
    """Refuse, before any allocation, a run whose sizes (each named with its
    value) would record or buffer more than MAX_RECORDED_ENTRIES entries."""
    if entries > MAX_RECORDED_ENTRIES:
        named = ", ".join(f"{name} {value}" for name, value in sizes.items())
        raise SpecError(f"{named}: {entries} entries to record exceed the cap "
                        f"{MAX_RECORDED_ENTRIES}")


class NumericalError(RuntimeError):
    """A computation failed numerically (NaN, divergence, internal solver fault)."""


class InconsistentObservationError(NumericalError):
    """A belief update conditioned on an observation with zero prior mass."""


class SimplexIterationError(NumericalError):
    """The simplex iteration cap was hit; distinct from an unbounded program."""

    def __init__(self, iterations: int):
        super().__init__(f"simplex did not terminate within {iterations} pivots")
        self.iterations = iterations


class IntegrationError(NumericalError):
    """An ODE integration step produced a non-finite state, or the fault its
    description names instead (such as negative mass)."""

    def __init__(self, step: int, description: str = "non-finite state"):
        super().__init__(f"{description} at integration step {step}")
        self.step = step


class DivergenceError(NumericalError):
    """An iterative learner left its trusted numeric range."""

    def __init__(self, step: int, detail: str = ""):
        msg = f"divergence detected at step {step}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.step = step
