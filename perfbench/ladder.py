"""The layer ladder: wall time per call of each layer in isolation.

Each rung calls one public entry point in a tight loop, fed the
workload's own key/value stream, and reports the median of a few timed
batches.  A rung measures the layer alone: under load a faster layer
saves at most its traced share (see README, "how the metrics interact").
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns
from typing import Callable, Dict, List, Sequence, Tuple, Union

from repro.core.types import Consistency, Topology
from repro.datalet import WriteAheadLog, make_engine
from repro.harness import Deployment, DeploymentSpec
from repro.hashing import HashRing, stable_hash
from repro.net import resp
from repro.net.actor import Actor
from repro.net.message import Message
from repro.net.protocol import BinaryCodec
from repro.net.simnet import SimCluster
from repro.sim import CostModel, DurableStore, Network, RngRegistry, Server, Simulator

from perfbench import spec

BATCHES = 3


def per_call_ns(batch: Callable[[], Union[int, Tuple[int, int]]],
                batches: int = BATCHES) -> float:
    """Median ns per call.  ``batch()`` makes its calls and returns how
    many; a batch that times only part of itself returns ``(ns, calls)``."""
    samples = []
    for _ in range(batches):
        t0 = perf_counter_ns()
        done = batch()
        elapsed = perf_counter_ns() - t0
        ns, calls = done if isinstance(done, tuple) else (elapsed, done)
        samples.append(ns / calls)
    return statistics.median(samples)


def loop_ns(fn: Callable, args: Sequence, batches: int = BATCHES) -> float:
    """Median ns per ``fn(arg)`` over ``args``."""
    def batch() -> int:
        for a in args:
            fn(a)
        return len(args)
    return per_call_ns(batch, batches)


def run(keys: List[str], values: List[str], make_stream: Callable[[int], object],
        calls: int = 4000) -> Dict[str, float]:
    """Every ladder rung.  ``keys``/``values`` are the workload's own
    stream; ``make_stream(i)`` builds session ``i``'s ``Workload``."""
    keys = keys[:calls]
    pairs = list(zip(keys, values))
    out: Dict[str, float] = {}

    # -- workload generation ---------------------------------------------
    next_op = make_stream(0).next_op
    out["workloads.next_op_ns"] = loop_ns(lambda _: next_op(), range(calls))
    out["workloads.build_us"] = loop_ns(make_stream, range(8)) / 1e3

    # -- routing ----------------------------------------------------------
    out["hashing.stable_hash_ns"] = loop_ns(stable_hash, keys)
    ring = HashRing([f"s{i}" for i in range(spec.SHARDS)])
    out["hashing.ring_lookup_ns"] = loop_ns(ring.lookup, keys)
    dep, client = _small_deployment("ms", "strong")
    out["client.shard_for_ns"] = loop_ns(client.shard_for, keys)

    # -- kernel -----------------------------------------------------------
    def schedule_pop() -> int:
        sim = Simulator()
        noop = _noop
        for i in range(calls):
            sim.call_later((i * 7919 % 1000) * 1e-6, noop)
        sim.run()
        return calls
    out["kernel.schedule_pop_ns"] = per_call_ns(schedule_pop)

    def process_steps() -> int:
        sim = Simulator()
        sim.spawn(_sleeper(calls))
        sim.run()
        return calls
    out["kernel.process_step_ns"] = per_call_ns(process_steps)

    # -- network + fabric -------------------------------------------------
    def net_send() -> int:
        net = Network(Simulator(), rng=RngRegistry(1))
        for _ in range(calls):
            net.send("a", "b", 120, _noop)
        return calls
    out["network.send_ns"] = per_call_ns(net_send)

    def route(free: bool) -> Tuple[int, int]:
        cluster = SimCluster(costs=CostModel(cpu_scale=spec.COST_SCALE), seed=1)
        cluster.add_host("src", free=True)
        cluster.add_host("dst", free=free)
        cluster.add_actor(_Sink("a"), host="src")
        cluster.add_actor(_Sink("b"), host="dst")
        msgs = [Message("put", {"key": k, "val": v}, src="a", dst="b") for k, v in pairs]
        t0 = perf_counter_ns()
        for m in msgs:
            cluster.route(m)
        cluster.sim.run()
        return perf_counter_ns() - t0, len(msgs)
    # route + arrival (+ CPU queue on a charged host) + deliver
    out["simnet.route_free_ns"] = per_call_ns(lambda: route(True))
    out["simnet.route_cpu_ns"] = per_call_ns(lambda: route(False))

    point = [Message("put", {"key": k, "val": v, "gen": 0}) for k, v in pairs]
    out["message.size_point_ns"] = loop_ns(Message.size_bytes, point)
    items = pairs[: spec.SCAN_LENGTH]
    scans = [Message("range", {"items": items}) for _ in range(max(1, calls // 10))]
    out["message.size_scan50_ns"] = loop_ns(Message.size_bytes, scans)

    def rpc() -> int:
        cluster = SimCluster(seed=1)
        cluster.add_host("h", free=True)
        a, b = cluster.add_actor(_Pinger("a", calls), host="h"), _Sink("b")
        cluster.add_actor(b, host="h")
        b.register("ping", lambda m: b.respond(m, "pong"))
        a.ping("b")
        cluster.sim.run()
        return calls
    out["actor.rpc_roundtrip_ns"] = per_call_ns(rpc)

    def submit() -> int:
        sim = Simulator()
        cpu = Server(sim, capacity=4)
        for _ in range(calls):
            cpu.submit(1e-6)
        sim.run()
        return calls
    out["resources.submit_ns"] = per_call_ns(submit)

    # -- engines ----------------------------------------------------------
    for kind in spec.LADDER_ENGINES:
        kwargs = {"memtable_limit": 512} if kind == "lsm" else {}
        engine = make_engine(kind, **kwargs)
        for k, v in pairs:
            engine.put(k, v)
        out[f"datalet.{kind}.put_ns"] = loop_ns(lambda kv, e=engine: e.put(*kv), pairs)
        out[f"datalet.{kind}.get_ns"] = loop_ns(engine.get, keys)
        if kind in ("mt", "lsm"):
            starts = keys[: max(1, calls // 10)]
            out[f"datalet.{kind}.scan50_ns"] = loop_ns(
                lambda k, e=engine: e.scan(k, spec.SCAN_END, spec.SCAN_LENGTH), starts)

    # -- WAL --------------------------------------------------------------
    def fresh_log() -> WriteAheadLog:
        return WriteAheadLog(DurableStore("h", RngRegistry(1).stream("d")), "w",
                             sync_every=1 << 30)

    def wal_append() -> int:
        log = fresh_log()
        for k, v in pairs:
            log.append("put", k, v)
        return len(pairs)
    out["wal.append_ns"] = per_call_ns(wal_append)

    def wal_sync() -> Tuple[int, int]:
        log, spent = fresh_log(), 0
        for i, (k, v) in enumerate(pairs):
            log.append("put", k, v)
            if i % 8 == 7:              # the group-commit size of the durable workload
                t0 = perf_counter_ns()
                log.sync()
                spent += perf_counter_ns() - t0
        return spent, max(1, len(pairs) // 8)
    out["wal.sync_ns"] = per_call_ns(wal_sync)

    written = fresh_log()
    for k, v in pairs:
        written.append("put", k, v)
    out["wal.replay_us_per_record"] = per_call_ns(
        lambda: WriteAheadLog(written.store, "w").replay(make_engine("ht")).records_applied
    ) / 1e3

    # -- wire codecs ------------------------------------------------------
    out["resp.encode_ns"] = loop_ns(lambda kv: resp.encode_command("SET", *kv), pairs)
    wire = [resp.encode_command("SET", k, v) for k, v in pairs]
    parser = resp.RespParser()

    def resp_parse(data: bytes) -> None:
        parser.feed(data)
        parser.next_value()
    out["resp.parse_ns"] = loop_ns(resp_parse, wire)
    frames = [{"op": "put", "key": k, "val": v} for k, v in pairs]
    out["protocol.encode_ns"] = loop_ns(BinaryCodec.encode, frames)
    encoded = [BinaryCodec.encode(f) for f in frames]
    codec = BinaryCodec()

    def frame_decode(data: bytes) -> None:
        codec.feed(data)
        codec.next_frame()
    out["protocol.decode_ns"] = loop_ns(frame_decode, encoded)

    # -- one handler round per combo, one session, 1 shard x 3 replicas ----
    puts = pairs[: max(50, calls // 20)]
    for combo, (topology, consistency) in spec.COMBOS.items():
        dep, client = _small_deployment(topology, consistency)
        sim = dep.sim
        for k, v in puts[:20]:
            sim.run_future(client.put(k, v))
        events0 = sim.events_processed
        t0 = perf_counter_ns()
        for k, v in puts:
            sim.run_future(client.put(k, v))
        out[f"core.{combo}.op_us"] = (perf_counter_ns() - t0) / len(puts) / 1e3
        out[f"core.{combo}.events_per_put"] = (sim.events_processed - events0) / len(puts)
    return out


# ---------------------------------------------------------------------------
def _noop() -> None:
    return None


def _sleeper(steps: int):
    for _ in range(steps):
        yield 1e-6


class _Sink(Actor):
    """Accepts anything; handlers are registered by the rung."""

    def on_unhandled(self, msg: Message) -> None:
        return None


class _Pinger(Actor):
    """Issues ``count`` sequential request/response round trips."""

    def __init__(self, node_id: str, count: int) -> None:
        super().__init__(node_id)
        self.left = count

    def ping(self, dst: str) -> None:
        def done(_resp, _err) -> None:
            self.left -= 1
            if self.left > 0:
                self.ping(dst)
        self.call(dst, "ping", {}, callback=done)


def _small_deployment(topology: str, consistency: str):
    dep = Deployment(DeploymentSpec(
        shards=1, replicas=spec.REPLICAS, topology=Topology(topology),
        consistency=Consistency(consistency), datalet_kinds=("ht",),
        costs=CostModel(cpu_scale=spec.COST_SCALE), standbys=0, seed=1,
    ))
    dep.start()
    client = dep.client("ladder")
    dep.sim.run_future(client.connect())
    return dep, client
