"""Seeded known-bad builds for the flow-control passes.

Each class here plants one of the bug classes the
:mod:`repro.analysis.flow` passes exist to catch, as a *subclass* of a
real controlet — same technique as the commit-point injections in
:mod:`repro.analysis.statespace`: the defect rides genuine protocol
machinery, so catching it proves the analyzer handles the production
shapes (inherited helpers, local closures, RPC error arms), not toy
snippets.

CI replays both defects on every run (``repro lint
--inject-flow-defects`` must fail; see the lint job's must-fail step),
and ``tests/test_flow.py`` pins the exact rule each one trips.  The
classes are never deployed — they exist purely as analyzer regression
anchors.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.ms_ec import MSEventualControlet
from repro.core.ms_sc import MSStrongControlet
from repro.errors import BespoError
from repro.net.message import Message

__all__ = [
    "FLOW_INJECTIONS",
    "LeakyPumpMSEventualControlet",
    "StaleEpochDualRouteControlet",
    "UncappedRequeueMSStrongControlet",
]


class LeakyPumpMSEventualControlet(MSEventualControlet):
    """Known-bad build: a hand-rolled replay pump whose completion
    callback releases the busy token only on the *success* arm.  On a
    datalet error (or RPC timeout) the token stays latched, the pump
    never re-enters, and ``_replay_queue`` fills forever — the exact
    wedge the ``pump-leak`` pass walks RPC error arms to find.  No test
    fails until a soak notices throughput went to zero, which is why
    this is seeded statically instead.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._replay_queue: List[list] = []
        self._replay_busy = False

    def _pump_replays(self) -> None:
        if self._replay_busy or not self._replay_queue:
            return
        self._replay_busy = True
        ops = self._replay_queue.pop(0)

        def applied(resp: Optional[Message], err: Optional[BespoError]) -> None:
            if err is None:
                # BUG: the error/timeout arm falls through without
                # clearing the token — one failed apply wedges the pump
                self._replay_busy = False
                self._pump_replays()

        self.datalet_call("apply_batch", {"ops": ops}, callback=applied)


class UncappedRequeueMSStrongControlet(MSStrongControlet):
    """Known-bad build: chain entries that arrive while a retry is in
    progress are parked in a private stash — which nothing ever drains,
    caps, or pump-manages (``unbounded-buffer``) — and their rid is
    stripped on the way in, so if the stash were ever re-driven no
    dedup gate downstream could recognize the entries and a retried
    mutation would apply twice (``retry-no-dedup``).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._retry_stash: List[tuple] = []

    def _enqueue_down(self, entry, done) -> None:
        if self._down_retries:
            # BUG: rid dropped, then queued into a stash with no drain
            entry.pop("rid", None)
            self._retry_stash.append((entry, done))
            return
        super()._enqueue_down(entry, done)


class StaleEpochDualRouteControlet(MSEventualControlet):
    """Known-bad build: a config handler that installs the routing
    block straight off the wire into the reshard gate, and never routes
    the payload through the epoch fence in ``_install_shard``.  A
    delayed ``config_update`` broadcast from a *previous* reshard window
    then re-opens dual-routing after the cutover committed: migrated
    keys route back to the retired source, and a fenced source accepts
    writes it no longer owns (``ring-epoch``, twice over).
    """

    def _on_config_update(self, msg: Message) -> None:
        # BUG: no epoch comparison, no _install_shard — stale window
        # descriptors land as if they were fresh
        self._gate.install(msg.payload.get("ring") or {})


FLOW_INJECTIONS: Dict[str, type] = {
    "leaky-pump": LeakyPumpMSEventualControlet,
    "uncapped-requeue": UncappedRequeueMSStrongControlet,
    "stale-epoch-dual-route": StaleEpochDualRouteControlet,
}
