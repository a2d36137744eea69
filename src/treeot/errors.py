"""Exception hierarchy."""


class TreeOTError(Exception):
    """Base class for all treeot errors."""


class GraphError(TreeOTError):
    """Invalid graph input."""


class SelfLoopError(GraphError):
    """Edge list contains a self-loop."""


class NonPositiveWeightError(GraphError):
    """Edge weight is zero or negative."""


class NonFiniteWeightError(GraphError):
    """Edge weight is NaN or infinite."""


class DuplicateEdgeError(GraphError):
    """The same undirected edge appears twice."""


class VertexRangeError(GraphError):
    """Edge endpoint outside 0..n-1."""


class DisconnectedError(GraphError):
    """Graph is not connected."""


class TreeError(TreeOTError):
    """Invalid tree input."""


class NotSpanningError(TreeError):
    """Edge set does not span all vertices."""


class HasCycleError(TreeError):
    """Edge set contains a cycle."""


class EdgeNotInGraphError(TreeError):
    """Requested edge is not an edge of the underlying graph."""


class MeasureError(TreeOTError):
    """Invalid probability measure."""


class MassMismatchError(MeasureError):
    """Total masses do not match the required value."""


class NegativeMassError(MeasureError):
    """Measure or plan carries negative mass."""


class NonFiniteMassError(MeasureError):
    """Measure, plan mass or potential carries a NaN or infinite value."""


class PlanError(TreeOTError):
    """Transport-plan construction failed."""


class ConditionViolatedError(PlanError):
    """The sign-alternation condition required by the closed-form plan fails."""


class InputError(TreeOTError):
    """Malformed input file or CLI argument."""


class BadDimensionsError(InputError):
    """Array or image has the wrong shape."""


class NegativePixelError(InputError):
    """Image carries a negative pixel value."""


class FormatError(InputError):
    """File could not be parsed."""


class KernelBackendError(TreeOTError):
    """The kernel backend asked for cannot be used."""
