"""Exception hierarchy for bespokv-py.

Every error raised by the framework derives from :class:`BespoError` so
applications can catch framework failures with a single handler while
letting programming errors (TypeError, etc.) propagate.
"""

from __future__ import annotations


class BespoError(Exception):
    """Base class for all bespokv-py errors."""


class ConfigError(BespoError):
    """Invalid or inconsistent deployment configuration."""


class KeyNotFound(BespoError):
    """A Get/Del referenced a key that is not present in the store."""

    def __init__(self, key: str):
        super().__init__(f"key not found: {key!r}")
        self.key = key


class TableNotFound(BespoError):
    """A client operation referenced a table that was never created."""

    def __init__(self, table: str):
        super().__init__(f"table not found: {table!r}")
        self.table = table


class ShardUnavailable(BespoError):
    """No live controlet is currently serving the shard."""


class RequestTimeout(BespoError):
    """A client request exceeded its deadline (node failure, overload)."""


class ProtocolError(BespoError):
    """A malformed frame arrived on a connection (RESP or binary codec)."""


class SimulationError(BespoError):
    """The discrete-event kernel was used incorrectly (e.g. negative delay)."""


class WalCorruption(BespoError):
    """A write-ahead log is damaged beyond its torn tail: a checksum or
    sequence error *followed by valid records* — media corruption, not
    an interrupted append — so replay refuses to guess."""
