"""Messaging layer: messages, actors, transports, protocol parsers.

* :class:`~repro.net.message.Message` — typed envelope
* :class:`~repro.net.actor.Actor` — the paper's event-driven
  programming model (Register/On/Emit, request-response continuations)
* :class:`~repro.net.simnet.SimCluster` — simulated transport with
  per-host CPUs and the network model
* :mod:`repro.net.protocol` / :mod:`repro.net.resp` — wire codecs for
  the real TCP front-end (:mod:`repro.net.tcp`)
"""

from repro import _lazy_exports

# resolved on first use: the TCP path imports none of them
__getattr__, __dir__ = _lazy_exports(__name__, {
    "Message": "repro.net.message",
    "HEADER_BYTES": "repro.net.message",
    "Actor": "repro.net.actor",
    "NodeContext": "repro.net.actor",
    "Reply": "repro.net.actor",
    "SimCluster": "repro.net.simnet",
    "ClientPort": "repro.net.simnet",
})

__all__ = [
    "Message",
    "HEADER_BYTES",
    "Actor",
    "NodeContext",
    "Reply",
    "SimCluster",
    "ClientPort",
]
