"""Write-ahead log + checkpoint persistence for datalet engines.

The durability layer under a :class:`~repro.datalet.base.DataletActor`:
every mutation is appended to a per-datalet record log *before* it is
acknowledged, the log is folded into an engine checkpoint when one
falls due, and after a crash-restart the engine is rebuilt by replaying
checkpoint + surviving log records (``Deployment.recover_host``).

Storage model
-------------

The WAL writes through files of a host's
:class:`~repro.sim.durable.DurableStore` (which survives actor
teardown and applies seeded power-loss damage on crash):

``<name>.log``
    append-only records, one per line::

        {"k": <key>, "o": "put"|"del", "s": <seq>, "v": <value|null>}|<crc8>

    JSON is dumped with sorted keys and no whitespace, so the byte
    encoding — and therefore every digest over it — is deterministic.
    The checksum is the crc32 of the JSON body, hex, zero-padded.

``<name>.run<n>``
    one immutable run ``{"k": [...], "v": [...]}|<crc8>``: sorted keys
    and their values, a null value being a tombstone.  The engine cuts
    runs (the LSM's SSTables, :meth:`Engine.checkpoint
    <repro.datalet.base.Engine.checkpoint>`); the WAL writes each one
    **once**, to a new file, at the first checkpoint that holds it.
    File numbers come from a counter seeded above every number the
    manifest names or the disk holds, so a restarted engine whose own
    run numbers start again at 1 never overwrites a named file.

``<name>.snap``
    the manifest ``{"data": {...}, "runs": [<n>, ...], "s": <seq>}|<crc8>``:
    the run files oldest first, plus ``data``, the engine state newer
    than every run (a null value deletes), as of sequence ``s``.  With
    no runs the ``"runs"`` key is left out, so an engine without runs
    (``ht``, ``mt``, ``log``) writes a full snapshot
    ``{"data": {...}, "s": <seq>}`` exactly as before runs existed.
    Written with the durable store's atomic-replace (commit-on-sync),
    so a crash mid-checkpoint keeps the previous manifest intact.

A checkpoint falls due every ``snapshot_every`` appends for an engine
without runs, and, for an engine with runs, whenever it holds a run the
last checkpoint did not (:meth:`WriteAheadLog.checkpoint_due`).  The
LSM therefore checkpoints once per flush or compaction, and its log
never holds more than one memtable's records plus the batch that cut
the run — the LevelDB bound.

Crash ordering inside :meth:`WriteAheadLog.install_snapshot`: new run
files are written and synced, then the manifest naming them commits,
then the log truncates, and only then are the run files the manifest
no longer names removed.  A crash at any point leaves a manifest whose
runs are all intact; replay reads only the runs it names and ignores
every other file.

Replay is **torn-tail tolerant**: a parse/checksum failure on the last
line of the log is an interrupted append — the tail is dropped and
counted.  The same failure *followed by valid records* is media
corruption and raises :class:`~repro.errors.WalCorruption`: replaying
past a hole would silently reorder history.  So does a damaged run file
the manifest names, since it was synced before the manifest.

Sequence numbers are absolute and monotonic across checkpoints, so a
log that survived a crash between "manifest committed" and "log
truncated" replays correctly: records with ``seq <= manifest.s`` are
skipped (idempotent replay), the rest apply in order.

Determinism: replay merges the runs oldest to newest, applies ``data``
over them, restores the live keys in sorted order and then applies log
records in file order; no wall clock, no unseeded randomness, no dict
-order dependence — the lint rules for ``datalet/`` enforce this.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import WalCorruption
from repro.sim.durable import DurableStore

__all__ = ["WriteAheadLog", "ReplayResult"]

#: for an engine without runs, checkpoint after this many appends (default).
DEFAULT_SNAPSHOT_EVERY = 256


#: one encoder for every line: ``json.dumps`` with these options would
#: build a fresh ``JSONEncoder`` per call.
_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _encode(obj: dict) -> bytes:
    body = _JSON.encode(obj).encode()
    return body + b"|%08x\n" % (zlib.crc32(body) & 0xFFFFFFFF)


def _decode(line: bytes) -> Optional[dict]:
    """Parse one checksummed line, trailing newline allowed; None =
    damaged (torn or corrupt).  Works on the bytes as read: a run file
    is one line of megabytes, and every decoded copy is a copy held."""
    body, sep, crc_hex = line.rpartition(b"|")
    try:
        if not sep or zlib.crc32(body) & 0xFFFFFFFF != int(crc_hex, 16):
            return None
        obj = json.loads(body)
    except ValueError:  # UnicodeDecodeError included
        return None
    return obj if isinstance(obj, dict) else None


@dataclass
class ReplayResult:
    """What one :meth:`WriteAheadLog.replay` recovered."""

    snapshot_seq: int       # seq the manifest covered (0 = no manifest)
    applied_seq: int        # highest record seq applied (>= snapshot_seq)
    records_applied: int    # log records replayed on top of the manifest
    torn_tail_dropped: int  # damaged trailing log lines discarded
    restored_keys: int      # live keys loaded from the manifest's runs + data


class WriteAheadLog:
    """Seq-numbered, checksummed, torn-tail-tolerant record log."""

    def __init__(
        self,
        store: DurableStore,
        name: str,
        sync_every: int = 1,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
    ):
        self.store = store
        self.name = name
        #: fsync after this many appends (1 = sync before every ack;
        #: >1 = group commit, trading durability for throughput).
        self.sync_every = max(1, int(sync_every))
        self.snapshot_every = max(1, int(snapshot_every))
        self._log = store.file(f"{name}.log")
        self._snap = store.file(f"{name}.snap")
        #: engine run number -> file number of each run the last
        #: checkpoint named, and the engine's newest run among them.
        self._run_files: Dict[int, int] = {}
        self._newest_run = 0
        self._next_run_file = 1
        #: next sequence number to assign.
        self.seq = 0
        #: highest seq guaranteed on disk (covered by snapshot or a
        #: synced log record) — the fsync point the oracle audits.
        self.durable_seq = 0
        self._unsynced = 0
        self._since_snapshot = 0
        #: True while a commit group is open: per-append auto-sync is
        #: suppressed so the whole group shares (at most) one fsync.
        self._grouping = False
        self.appends = 0
        self.syncs = 0
        self.snapshots = 0
        self._adopt_existing()

    def _adopt_existing(self) -> None:
        """Continue the sequence of whatever already survives on disk
        (re-opening after a crash-restart)."""
        snap_seq, _, runs, _ = self._read_snapshot()
        tail_seq, _, _ = self._scan_log(snap_seq)
        self.seq = max(snap_seq, tail_seq)
        self.durable_seq = self.seq
        self._next_run_file = max([0, *runs, *self._stored_runs()]) + 1

    def _run_name(self, num: int) -> str:
        return f"{self.name}.run{num}"

    def _stored_runs(self) -> List[int]:
        """Numbers of every run file of this log on disk, named or not."""
        prefix = f"{self.name}.run"
        return [int(f[len(prefix):]) for f in self.store.files()
                if f.startswith(prefix) and f[len(prefix):].isdigit()]

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def append(self, op: str, key: str, value: Optional[str] = None) -> int:
        """Log one mutation; returns its sequence number.

        The record is in the page cache until :meth:`sync` (called
        automatically every ``sync_every`` appends); only synced
        records are guaranteed to survive a crash.
        """
        self.seq += 1
        self.appends += 1
        rec = {"s": self.seq, "o": op, "k": key,
               "v": value if op == "put" else None}
        self._log.append(_encode(rec))
        self._unsynced += 1
        self._since_snapshot += 1
        if not self._grouping and self._unsynced >= self.sync_every:
            self.sync()
        return self.seq

    def begin_commit_group(self) -> None:
        """Open a commit group: appends accumulate without syncing.

        WAL-level group commit — a replication batch logs every member
        and then pays for at most one fsync in :meth:`end_commit_group`,
        instead of one per record.  Durability semantics per record are
        unchanged at the ack boundary: callers ack only after the group
        is closed."""
        self._grouping = True

    def end_commit_group(self) -> None:
        """Close the group and apply the sync policy once.

        ``sync_every == 1`` (strict durability): exactly one fsync
        covers the whole group, so every member is on disk before the
        caller acks — durability-before-ack now holds at batch
        granularity.  ``sync_every > 1``: sync only when the unsynced
        run has reached the window; the unsynced tail may transiently
        reach ``max(sync_every, group size)``, which the crash contract
        already permits (unsynced-tail loss is legal)."""
        self._grouping = False
        if self._unsynced and (self.sync_every == 1
                               or self._unsynced >= self.sync_every):
            self.sync()

    def sync(self) -> None:
        """fsync the log: everything appended so far becomes durable."""
        self._log.sync()
        self.durable_seq = self.seq
        self._unsynced = 0
        self.syncs += 1

    def checkpoint_due(self, engine) -> bool:
        """True once the log should fold into a checkpoint — check this
        before asking ``engine`` for one (an O(n) copy without runs).

        An engine without runs is due every ``snapshot_every`` appends.
        An engine with runs is due when it holds a run the last
        checkpoint did not, so each run is written exactly once."""
        newest = engine.newest_run
        if newest is None:
            return self._since_snapshot >= self.snapshot_every
        return newest != self._newest_run

    def install_snapshot(self, data: Dict[str, Optional[str]],
                         runs: Iterable = ()) -> None:
        """Checkpoint: make ``runs`` (oldest first) with ``data`` over
        them the new baseline at the current seq, and truncate the log.

        Ordering matters for crash safety: a run not yet on disk is
        written to its own file and synced; then the manifest commits
        (atomic replace + sync); then the log truncates; then the run
        files the manifest no longer names are removed.  A crash after
        the manifest leaves it plus a log of records <= its seq —
        replay skips them by sequence number.
        """
        runs = list(runs)
        files = {run.run: self._persist_run(run) for run in runs}
        manifest = {"s": self.seq, "data": dict(data)}
        if runs:
            manifest["runs"] = [files[run.run] for run in runs]
        self._snap.replace(_encode(manifest))
        self._snap.sync()
        self._log.replace(b"")
        self._log.sync()
        named = set(files.values())
        for num in self._stored_runs():
            if num not in named:
                self.store.remove(self._run_name(num))
        self._run_files = files
        self._newest_run = runs[-1].run if runs else 0
        self.durable_seq = self.seq
        self._unsynced = 0
        self._since_snapshot = 0
        self.snapshots += 1

    def _persist_run(self, run) -> int:
        """The file number holding ``run``, writing it first if no
        earlier checkpoint did."""
        num = self._run_files.get(run.run)
        if num is None:
            num = self._next_run_file
            self._next_run_file += 1
            f = self.store.file(self._run_name(num))
            f.replace(_encode({"k": run.keys, "v": run.values}))
            f.sync()
        return num

    # ------------------------------------------------------------------
    # recovery path
    # ------------------------------------------------------------------
    def _read_snapshot(self) -> Tuple[int, Dict[str, Optional[str]], List[int], bool]:
        """(seq, data, run file numbers, damaged): the newest intact
        manifest on disk."""
        raw = self._snap.read()
        if not raw:
            return 0, {}, [], False
        obj = _decode(raw)
        if obj is None or "data" not in obj:
            # a damaged manifest can only be a torn replace that the
            # durable store failed to roll back; treat as absent
            return 0, {}, [], True
        return int(obj["s"]), dict(obj["data"]), [int(n) for n in obj.get("runs", ())], False

    def _read_run(self, num: int) -> Iterable[Tuple[str, Optional[str]]]:
        obj = _decode(self.store.file(self._run_name(num)).read())
        if obj is None or "k" not in obj:
            # synced before the manifest that names it: not a torn write
            raise WalCorruption(f"wal {self.name!r}: run file {num} is damaged")
        return zip(obj["k"], obj["v"])

    def _scan_log(self, min_seq: int) -> Tuple[int, list, int]:
        """(last_seq, records beyond min_seq in order, torn lines)."""
        raw = self._log.read()
        lines = raw.split(b"\n") if raw else []
        if lines and lines[-1] == b"":
            lines.pop()
        records = []
        last_seq = 0
        torn = 0
        for i, line in enumerate(lines):
            obj = _decode(line)
            if obj is None or "s" not in obj:
                if i == len(lines) - 1:
                    torn += 1
                    break
                raise WalCorruption(
                    f"wal {self.name!r}: damaged record at line {i + 1} "
                    f"of {len(lines)} (not a torn tail)"
                )
            seq = int(obj["s"])
            if seq <= last_seq:
                raise WalCorruption(
                    f"wal {self.name!r}: sequence went backwards at line "
                    f"{i + 1} ({seq} after {last_seq})"
                )
            last_seq = seq
            if seq > min_seq:
                records.append(obj)
        return last_seq, records, torn

    def replay(self, engine) -> ReplayResult:
        """Rebuild ``engine`` from manifest + log (deterministic order).

        Merges the manifest's runs oldest to newest and applies its
        ``data`` over them (a null value deletes), loads the live keys
        through the engine's ``restore`` contract in sorted key order,
        then applies log records in file order.  Deletes of absent keys
        are tolerated — a delete may be logged for a key whose put
        predates the checkpoint window.
        """
        from repro.errors import KeyNotFound  # local: avoid heavy import at module load

        snap_seq, tail, runs, _damaged = self._read_snapshot()
        merged: Dict[str, Optional[str]] = {}
        for num in runs:
            merged.update(self._read_run(num))
        merged.update(tail)
        live = sorted(k for k, v in merged.items() if v is not None)
        engine.restore({k: merged[k] for k in live})
        last_seq, records, torn = self._scan_log(snap_seq)
        applied = 0
        top = snap_seq
        for rec in records:
            if rec.get("o") == "put":
                engine.put(rec["k"], rec["v"])
            else:
                try:
                    engine.delete(rec["k"])
                except KeyNotFound:
                    pass
            applied += 1
            top = int(rec["s"])
        # adopt the surviving sequence so post-recovery appends continue it
        self.seq = max(self.seq, top)
        self.durable_seq = max(self.durable_seq, top)
        return ReplayResult(
            snapshot_seq=snap_seq,
            applied_seq=top,
            records_applied=applied,
            torn_tail_dropped=torn,
            restored_keys=len(live),
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        return {
            "wal_seq": float(self.seq),
            "wal_durable_seq": float(self.durable_seq),
            "wal_appends": float(self.appends),
            "wal_syncs": float(self.syncs),
            # group-commit effectiveness: 1.0 = an fsync per record,
            # → 0 as batching amortizes the flushes away
            "wal_fsyncs_per_op": (
                float(self.syncs) / self.appends if self.appends else 0.0
            ),
            "wal_snapshots": float(self.snapshots),
            "wal_log_bytes": float(self._log.size),
        }
