"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """Raised when a component is constructed with invalid parameters."""


class TopologyError(ReproError):
    """Raised for malformed WAN topologies (unknown sites, bad bandwidth)."""


class CubeError(ReproError):
    """Raised by OLAP cube operations (unknown dimension, bad coordinates)."""


class SchemaError(ReproError):
    """Raised when records do not match the dataset schema."""


class PlacementError(ReproError):
    """Raised when a data/task placement problem is infeasible or invalid."""


class SolverError(PlacementError):
    """Raised when an LP solver fails to converge or reports infeasibility."""


class QueryError(ReproError):
    """Raised for malformed queries (parse errors, unknown attributes)."""


class EngineError(ReproError):
    """Raised by the execution engine (bad DAG, missing partitions)."""


class SimilarityError(ReproError):
    """Raised by similarity checking (empty probes, dimension mismatch)."""


class WorkloadError(ReproError):
    """Raised by workload generators for invalid generation parameters."""


class ObservabilityError(ReproError):
    """Raised on malformed spans, traces or metric operations."""


class LintError(ReproError):
    """Raised by the static-analysis pass (bad rule ids, unreadable files)."""


class InvariantViolation(ReproError):
    """Raised by the runtime sanitizer when a simulation invariant breaks."""


class FaultError(ReproError):
    """Raised for malformed fault schedules or unknown chaos profiles."""


class BenchError(ReproError):
    """Raised by the benchmark harness (bad cases, malformed reports)."""


class ServeError(ReproError):
    """Raised by the serving layer (bad tenant config, wedged admission)."""
