"""Exception types shared across the package.

ValueError subclasses signal bad input (CLI exit code 2); ConsistencyError
signals a failed internal self-check (CLI exit code 3).
"""


class DynkinTypeError(ValueError):
    """Invalid (family, rank) combination."""


class RootStringError(ValueError):
    """Root string requested along a collinear root."""


class PositivityError(ValueError):
    """A fiber parameter x_alpha left the positive domain."""

    def __init__(self, message, root_label=None, value=None, bound=None):
        super().__init__(message)
        self.root_label = root_label
        self.value = value
        self.bound = bound


class NonFiniteComponentError(ValueError):
    """A form was given a component that is not finite, at key."""

    def __init__(self, message, key):
        super().__init__(message)
        self.key = key


class MissingComplexStructureError(ValueError):
    """Operation needs a torus complex structure but none was supplied."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""
