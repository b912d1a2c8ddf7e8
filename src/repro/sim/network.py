"""Network model for the simulated cluster.

Message delivery time between two nodes is::

    one_way_latency + nbytes / bandwidth + jitter

with jitter drawn from a named RNG stream so runs are reproducible.
The model also supports *failing* nodes (all traffic to/from a dead node
is silently dropped, exactly what a crashed process looks like to the
rest of the cluster) and *partitions* (pairwise drop sets), which the
failover experiments (Fig 16) and tests use.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry

__all__ = ["Network", "NetworkParams"]


class NetworkParams:
    """Tunable constants for one network fabric.

    Defaults approximate the paper's GCE setup (1 Gbps, ~100 us one-way
    in-zone latency).  The DPDK experiment swaps in a low-latency
    parameter set (see :mod:`repro.net.dpdk`).
    """

    def __init__(
        self,
        one_way_latency: float = 100e-6,
        bandwidth: float = 125e6,  # 1 Gbps in bytes/sec
        jitter_frac: float = 0.1,
        loopback_latency: float = 5e-6,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        reorder_rate: float = 0.0,
        reorder_delay: float = 20e-3,
        latency_spike_factor: float = 10.0,
    ):
        for rate_name, rate in (
            ("loss_rate", loss_rate),
            ("duplicate_rate", duplicate_rate),
            ("reorder_rate", reorder_rate),
        ):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{rate_name} must be in [0, 1), got {rate}")
        if reorder_delay <= 0.0:
            raise ValueError(f"reorder_delay must be positive, got {reorder_delay}")
        if latency_spike_factor < 1.0:
            raise ValueError(
                f"latency_spike_factor must be >= 1, got {latency_spike_factor}"
            )
        self.one_way_latency = one_way_latency
        self.bandwidth = bandwidth
        self.jitter_frac = jitter_frac
        self.loopback_latency = loopback_latency
        #: fraction of non-loopback messages silently dropped — chaos
        #: injection for robustness tests (timeouts, retries and
        #: anti-entropy must absorb it).
        self.loss_rate = loss_rate
        #: fraction of non-loopback messages delivered *twice* (the
        #: second copy after an extra reorder_delay) — receivers dedup
        #: by message id, as a TCP stack would, but still pay the CPU.
        self.duplicate_rate = duplicate_rate
        #: fraction of non-loopback messages held back by up to
        #: ``reorder_delay`` so they overtake each other in flight.
        self.reorder_rate = reorder_rate
        self.reorder_delay = reorder_delay
        #: default multiplier a ``latency_spike`` fault applies to a
        #: link's base latency (must dwarf jitter, stay below timeouts).
        self.latency_spike_factor = latency_spike_factor


class Network:
    """Delivers payloads between named nodes with modeled delay."""

    def __init__(
        self,
        sim: Simulator,
        params: Optional[NetworkParams] = None,
        rng: Optional[RngRegistry] = None,
    ):
        self.sim = sim
        self.params = params or NetworkParams()
        self._rng = (rng or RngRegistry(0)).stream("network.jitter")
        self._dead: Set[str] = set()
        self._cut: Set[Tuple[str, str]] = set()
        #: per-directed-link latency multipliers (latency_spike faults).
        self._link_factor: Dict[Tuple[str, str], float] = {}
        #: per-node latency multipliers (applied to all its traffic).
        self._node_factor: Dict[str, float] = {}
        # stats
        self.messages_sent = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self.messages_reordered = 0
        self.bytes_sent = 0

    # -- failure control -------------------------------------------------
    def kill(self, node: str) -> None:
        """Drop all future traffic to and from ``node``."""
        self._dead.add(node)

    def revive(self, node: str) -> None:
        self._dead.discard(node)

    def is_dead(self, node: str) -> bool:
        return node in self._dead

    def cut_oneway(self, src: str, dst: str) -> None:
        """Drop traffic from ``src`` to ``dst`` only — an asymmetric
        partition (src's packets vanish, dst's still arrive)."""
        self._cut.add((src, dst))

    def heal_oneway(self, src: str, dst: str) -> None:
        self._cut.discard((src, dst))

    def partition(self, a: str, b: str) -> None:
        """Cut the (bidirectional) link between ``a`` and ``b``."""
        self._cut.add((a, b))
        self._cut.add((b, a))

    def heal(self, a: str, b: str) -> None:
        self._cut.discard((a, b))
        self._cut.discard((b, a))

    def is_cut(self, src: str, dst: str) -> bool:
        return (src, dst) in self._cut

    def heal_all(self) -> None:
        """Restore every cut link (chaos teardown)."""
        self._cut.clear()

    # -- latency degradation ---------------------------------------------
    def set_link_factor(self, src: str, dst: str, factor: float) -> None:
        """Multiply the base latency of the directed ``src -> dst`` link
        (a latency spike on one path); ``factor`` of 1 clears it."""
        if factor < 1.0:
            raise ValueError(f"link factor must be >= 1, got {factor}")
        if factor == 1.0:
            self._link_factor.pop((src, dst), None)
        else:
            self._link_factor[(src, dst)] = factor

    def set_node_factor(self, node: str, factor: float) -> None:
        """Multiply the latency of every message to/from ``node``."""
        if factor < 1.0:
            raise ValueError(f"node factor must be >= 1, got {factor}")
        if factor == 1.0:
            self._node_factor.pop(node, None)
        else:
            self._node_factor[node] = factor

    def clear_degradations(self) -> None:
        self._link_factor.clear()
        self._node_factor.clear()

    # -- delivery --------------------------------------------------------
    def delay(self, src: str, dst: str, nbytes: int) -> float:
        """Sample the delivery delay for one message."""
        p = self.params
        if src == dst:
            base = p.loopback_latency
        else:
            base = p.one_way_latency + nbytes / p.bandwidth
            if self._link_factor or self._node_factor:
                factor = self._link_factor.get((src, dst), 1.0)
                factor = max(factor, self._node_factor.get(src, 1.0))
                factor = max(factor, self._node_factor.get(dst, 1.0))
                base *= factor
        jitter = base * p.jitter_frac * self._rng.random()
        return base + jitter

    def send(
        self,
        src: str,
        dst: str,
        nbytes: int,
        deliver: Callable[..., None],
        *args: Any,
    ) -> bool:
        """Schedule ``deliver(*args)`` after the modeled delay.

        Returns False (and drops the message) if either endpoint is dead
        or the link is partitioned — the caller is *not* told, matching
        UDP/crashed-TCP-peer semantics; request timeouts are the
        responsibility of the sender.
        """
        self.messages_sent += 1
        dead = self._dead
        if (dead and (src in dead or dst in dead)) or (self._cut and (src, dst) in self._cut):
            self.messages_dropped += 1
            return False
        p = self.params
        # RNG draws, in this order: loss, jitter, reorder, duplicate
        if p.loss_rate > 0.0 and src != dst and self._rng.random() < p.loss_rate:
            self.messages_dropped += 1
            return False
        self.bytes_sent += nbytes
        delay = self.delay(src, dst, nbytes)
        if src != dst:
            if p.reorder_rate > 0.0 and self._rng.random() < p.reorder_rate:
                # hold the message back so later traffic overtakes it
                self.messages_reordered += 1
                delay += p.reorder_delay * self._rng.random()
            if p.duplicate_rate > 0.0 and self._rng.random() < p.duplicate_rate:
                self.messages_duplicated += 1
                self.sim.call_later(
                    delay + p.reorder_delay * self._rng.random(), deliver, *args
                )
        self.sim.call_later(delay, deliver, *args)
        return True
