"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4.
"""


class AuditToolError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(AuditToolError):
    """Invalid configuration: bad grammar, out-of-range fractions, bad dims."""


class DataError(AuditToolError):
    """Malformed or inconsistent data files / inputs."""


class ParseError(DataError):
    """File could not be parsed; the message names the file (and line)."""


class SchemaError(DataError):
    """Parsed data violates structural invariants (e.g. length mismatches)."""


class StoreError(DataError):
    """Checkpoint store is corrupt, truncated, or has a bad magic/version."""


class FingerprintError(DataError):
    """Checkpoint store and audited dataset do not belong together."""


class MetricUndefinedError(DataError):
    """Metric is undefined for the given input (e.g. single-class AUC)."""


class NumericError(AuditToolError):
    """Non-finite values encountered where finite numerics are required."""
