"""Exception hierarchy shared across the package."""


class SpindynError(Exception):
    """Base class for all package errors."""


class ParameterError(SpindynError, ValueError):
    """A caller-supplied parameter is out of its allowed range."""


class IntegrityError(SpindynError):
    """A data structure violates one of its own declared invariants."""


class NumericError(SpindynError):
    """An iterative numeric procedure failed to converge."""


class NonFiniteState(NumericError):
    """A simulated state turned NaN or infinite at (replica, site, step).

    ``replica`` counts from the first replica of the integrated block; a
    caller that integrates a chunk re-raises ``shifted(offset)`` with the
    global id.
    """

    def __init__(self, replica: int, site: int, step: int):
        super().__init__(f"non-finite state at replica {replica}, site {site}, "
                         f"step {step}")
        self.replica, self.site, self.step = replica, site, step

    def shifted(self, offset: int) -> "NonFiniteState":
        return NonFiniteState(self.replica + offset, self.site, self.step)


class ConstructionError(SpindynError):
    """A derived object failed its post-construction validation.

    Carries the validation report on the ``report`` attribute.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ConfigError(SpindynError):
    """A run configuration failed schema validation."""
