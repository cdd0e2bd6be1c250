"""Exception hierarchy shared across the package.

Two top-level families matter for the CLI exit codes: ConfigError (exit 2)
for anything wrong with a configuration or parameter, and DataError (exit 3)
for anything wrong with input data.
"""


class FogrepError(Exception):
    pass


class ConfigError(FogrepError):
    """Invalid configuration value, experiment file, or parameter."""


class DataError(FogrepError):
    """Invalid or missing input data."""


class TraceFormatError(DataError):
    """Malformed trace record; carries the 1-based line number, which the message
    gives after the name of the file ``source`` when there is one."""

    def __init__(self, message, line=None, source=None):
        super().__init__(message if line is None else f"{f'{source} ' if source else ''}line {line}: {message}")
        self.line = line


class EmptyTraceError(DataError):
    """Trace file contains no data rows."""


class TraceOverlapError(DataError):
    """Trajectory files of one client overlap in time."""

    def __init__(self, message, pairs=()):
        super().__init__(message)
        self.pairs = list(pairs)


class UndefinedMetricError(DataError):
    """Metric has no defined value for the input (e.g. zero active time)."""


class EngineInvariantError(FogrepError):
    """Internal simulation invariant violated; indicates a bug, aborts the run."""
