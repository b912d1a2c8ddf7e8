"""Shared log ordering service (paper §III optional components).

BESPOKV imports ZLog (a CORFU implementation) to give Active-Active
deployments a global order over concurrent Puts.  This package provides
the same service: a sequencer hands out positions, entries live in
fixed-size segments, and readers poll with ``fetch_from`` cursors
(the paper's ``AsyncFetch``).
"""

from repro.sharedlog.log import LogEntry, SharedLog, SharedLogActor, log_name

__all__ = ["SharedLog", "SharedLogActor", "LogEntry", "log_name"]
