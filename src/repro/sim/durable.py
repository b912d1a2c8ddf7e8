"""Simulated per-host durable storage (the disk under the WAL).

A :class:`DurableStore` models the stable storage of one host.  It is
owned by the cluster, **not** by any actor, so its contents survive
actor teardown — that is the whole point: a crash-*restart* fault kills
the actors on a host and later re-spawns fresh ones that recover their
state from this store (see ``Deployment.recover_host``).

The model is deliberately byte-level:

* :meth:`DurableFile.append` extends an append-only file; the bytes are
  *unsynced* (page cache) until :meth:`DurableFile.sync` (fsync) moves
  the synced watermark to the end of file.
* :meth:`DurableFile.replace` stages a full-content replacement that
  commits atomically at the next ``sync`` — the write-temp-then-rename
  idiom; a crash before the sync leaves the *old* content intact.
* :meth:`DurableStore.remove` unlinks a file; the removal is durable
  at once (unlink + directory fsync).
* On a host crash (:meth:`DurableStore.on_crash`) any staged
  replacement is discarded and the unsynced suffix of every file is
  truncated to a seeded random prefix — so a torn (partially written)
  tail record is a scenario recovery code *will* face, not a
  hypothetical.  Everything up to the synced watermark always survives.

Loss policy is configurable per store (``unsynced_loss``):

``"partial"`` (default)
    keep a seeded random prefix of the unsynced suffix (torn tail);
``"all"``
    drop the entire unsynced suffix (fail-stop page cache);
``"none"``
    lose nothing (battery-backed cache) — useful to isolate replay
    logic from loss modeling in tests.

All randomness comes from a named :class:`~repro.sim.rng.RngRegistry`
stream, so crash damage is a pure function of the run seed.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigError

__all__ = ["DurableFile", "DurableStore"]

LOSS_POLICIES = ("partial", "all", "none")


class DurableFile:
    """One append-only file on a host's simulated disk."""

    __slots__ = ("name", "_data", "_synced", "_staged")

    def __init__(self, name: str):
        self.name = name
        #: committed content: the ``bytes`` of the last replace (shared,
        #: not copied) until an append turns it into a bytearray.
        self._data = bytearray()
        #: byte offset up to which content is fsynced (crash-proof).
        self._synced = 0
        #: staged full-content replacement; commits on the next sync.
        self._staged: Optional[bytes] = None

    # -- writes --------------------------------------------------------
    def append(self, data: bytes) -> None:
        if self._staged is not None:
            raise ConfigError(
                f"durable file {self.name!r}: append while a replace is staged"
            )
        if not isinstance(self._data, bytearray):
            self._data = bytearray(self._data)
        self._data.extend(data)

    def replace(self, content: bytes) -> None:
        """Stage an atomic full replacement (write temp + rename)."""
        self._staged = bytes(content)

    def sync(self) -> None:
        """fsync: commit staged replacement (if any) and harden all bytes."""
        if self._staged is not None:
            self._data = self._staged
            self._staged = None
        self._synced = len(self._data)

    # -- reads ---------------------------------------------------------
    def read(self) -> bytes:
        """Current on-disk content (what a reopening process sees);
        no copy while the file is exactly what its last replace wrote."""
        return bytes(self._data)

    @property
    def size(self) -> int:
        return len(self._data)

    @property
    def synced_size(self) -> int:
        return self._synced

    # -- crash damage --------------------------------------------------
    def crash(self, rng, policy: str) -> int:
        """Apply power-loss damage; returns bytes lost past the sync point."""
        self._staged = None  # un-renamed temp file: gone
        unsynced = len(self._data) - self._synced
        if unsynced <= 0 or policy == "none":
            return 0
        if policy == "all":
            keep = 0
        else:  # partial: a torn tail — some prefix of the dirty pages hit disk
            keep = rng.randrange(unsynced + 1)
        del self._data[self._synced + keep:]
        return unsynced - keep


class DurableStore:
    """The durable files of one host; survives every actor on it."""

    def __init__(self, host: str, rng, unsynced_loss: str = "partial"):
        if unsynced_loss not in LOSS_POLICIES:
            raise ConfigError(
                f"unknown unsynced_loss policy {unsynced_loss!r} "
                f"(expected one of {LOSS_POLICIES})"
            )
        self.host = host
        self._rng = rng
        self.unsynced_loss = unsynced_loss
        self._files: Dict[str, DurableFile] = {}
        #: sim time of the most recent crash (-1.0 = never crashed).
        self.last_crash_at = -1.0
        self.crashes = 0

    def file(self, name: str) -> DurableFile:
        f = self._files.get(name)
        if f is None:
            f = self._files[name] = DurableFile(name)
        return f

    def remove(self, name: str) -> None:
        """Delete ``name`` (no-op if absent); durable immediately."""
        self._files.pop(name, None)

    def files(self) -> List[str]:
        """File names in deterministic (sorted) order — never expose
        dict insertion order to replay code."""
        return sorted(self._files)

    def on_crash(self, now: float) -> int:
        """Power loss: damage every file per the loss policy.

        Iterates files in sorted order so the per-file RNG draws are
        independent of creation order.  Returns total bytes lost.
        """
        self.crashes += 1
        self.last_crash_at = now
        lost = 0
        for name in sorted(self._files):
            lost += self._files[name].crash(self._rng, self.unsynced_loss)
        return lost
