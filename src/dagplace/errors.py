"""Exception hierarchy shared across the package.

Three families matter to callers, and the CLI maps each to its own exit
code: ValidationError for malformed or inconsistent input (2),
BudgetExceeded for an enumeration or DP table over its budget (3), and
PreconditionError for an instance outside a solver's class (4).  Only two
leaf classes exist, each because some code catches it: DisconnectedGraph
(a ValidationError carrying the network's components) and
MaxResamplesExceeded (a random network that stayed disconnected).
"""


class DagplaceError(Exception):
    """Base class for all package errors."""


class ValidationError(DagplaceError):
    """Malformed or inconsistent input data."""


class DisconnectedGraph(ValidationError):
    def __init__(self, components):
        self.components = tuple(tuple(sorted(c)) for c in components)
        super().__init__(
            "network is not connected; components: "
            + ", ".join(str(list(c)) for c in self.components)
        )


class BudgetExceeded(DagplaceError):
    """An enumeration or DP table would exceed the configured budget."""


class PreconditionError(DagplaceError):
    """A solver was invoked on an instance outside its contract."""


class MaxResamplesExceeded(DagplaceError):
    """Random graph stayed disconnected after the retry limit."""
