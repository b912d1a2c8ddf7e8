"""End-to-end tests for online resharding with live key migration.

Each test deploys a real combo, drives the coordinator's double-ring
cutover through ``Deployment.request_reshard``, and asserts the one
property the whole protocol exists for: **no acked write is lost and
no stale copy resurfaces**, no matter how the migration pump
interleaves with live traffic.

``test_reshard_preserves_last_write`` is also the regression anchor
for the cross-reshard clobber bug: after an ``add`` window commits,
moved keys are *not* purged from their old owner; a later ``remove``
window's census must consult the old ring and skip those leftovers, or
they re-migrate and overwrite newer values at the true owner.
"""

import pytest

from repro.core.controlet import Controlet
from repro.core.types import Consistency, Topology
from repro.errors import KeyNotFound
from repro.harness.deploy import Deployment, DeploymentSpec
from repro.hashing import HashRing

COMBOS = [
    pytest.param(Topology.MS, Consistency.STRONG, id="ms-sc"),
    pytest.param(Topology.MS, Consistency.EVENTUAL, id="ms-ec"),
    pytest.param(Topology.AA, Consistency.STRONG, id="aa-sc"),
    pytest.param(Topology.AA, Consistency.EVENTUAL, id="aa-ec"),
]

KEYS = [f"k{i}" for i in range(36)]


def _deploy(topo, cons, seed=7):
    spec = DeploymentSpec(shards=2, replicas=3, topology=topo,
                          consistency=cons, seed=seed, standbys=1)
    dep = Deployment(spec)
    dep.start()
    return dep


def _get_eventual(client, key, rounds=40):
    """Read with staleness retries: EC replicas serve not_found until
    replay catches up with the migrated copies."""
    for _ in range(rounds):
        try:
            val = yield client.get(key)
            return val
        except KeyNotFound:
            yield 0.5
    raise AssertionError(f"{key} never converged")


def _gone_eventual(client, key, rounds=40):
    """The mirror image: a deleted key may stay visible on lagging
    replicas until replay applies the tombstone."""
    for _ in range(rounds):
        try:
            yield client.get(key)
            yield 0.5
        except KeyNotFound:
            return True
    raise AssertionError(f"{key} never disappeared")


#: failure timeouts of quiet simulation run after each scenario, so an
#: actor exception after the cutover still fails the test.
QUIET_TAIL = 3


def _run(dep, gen, until=900.0):
    """Run the scenario to its end (at most ``until`` s of sim time),
    then a short quiet tail, and return its result."""
    result = dep.sim.run_future(dep.sim.spawn(gen), timeout=until)
    dep.sim.run_until(dep.sim.now + QUIET_TAIL * dep.spec.control.failure_timeout)
    return result


# ---------------------------------------------------------------------------
# quiescent cutovers: values survive add and remove, including the
# stale-leftover regression (overwrite between the two windows)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("topo,cons", COMBOS)
def test_reshard_preserves_last_write(topo, cons):
    dep = _deploy(topo, cons)
    client = dep.client("c1")

    def proc():
        yield client.connect()
        for k in KEYS:
            yield client.put(k, f"{k}.v0")
        stats_add = yield dep.request_reshard("add")
        yield client.connect()  # adopt the committed ring
        for k in KEYS:
            val = yield from _get_eventual(client, k)
            assert val == f"{k}.v0", f"{k} lost across add: {val!r}"
        # overwrite everything: the copies left behind at the old
        # owners are now STALE — the remove window must not ship them
        for k in KEYS:
            yield client.put(k, f"{k}.v1")
        stats_rm = yield dep.request_reshard("remove", shard="s0")
        yield client.connect()
        for k in KEYS:
            val = yield from _get_eventual(client, k)
            assert val == f"{k}.v1", f"stale copy resurfaced for {k}: {val!r}"
        return stats_add, stats_rm

    stats_add, stats_rm = _run(dep, proc())
    assert stats_add["moved"] > 0  # the new shard took over a slice
    assert stats_rm["moved"] > 0   # the drained shard shipped its keys
    assert dep.coordinator.view.reshard is None
    assert dep.coordinator.view.ring_gen == 2


@pytest.mark.parametrize("pos", [0, 1], ids=["head", "mid"])
@pytest.mark.parametrize("topo,cons", COMBOS)
def test_reshard_completes_when_a_source_member_dies(topo, cons, pos):
    """A source shard's head (or middle replica) dies as the add starts:
    the migration order follows the promoted head, the fence stops
    waiting on the dead member, and every preloaded key reads back."""
    dep = _deploy(topo, cons)
    client = dep.client("c1")

    def proc():
        yield client.connect()
        for k in KEYS:
            yield client.put(k, f"{k}.v0")
        # let async propagation settle: an eventual master that dies
        # holding unreplicated acked writes loses them by design
        yield 1.0
        fut = dep.request_reshard("add")
        dep.kill_replica(0, pos)
        stats = yield fut
        yield client.connect()
        for k in KEYS:
            val = yield from _get_eventual(client, k)
            assert val == f"{k}.v0", f"{k} lost: {val!r}"
        return stats

    # not _run: its quiet tail is too short for the refill and the
    # retires, which 30 s past the cutover still runs
    stats = dep.sim.run_future(dep.sim.spawn(proc()), timeout=900.0)
    dep.sim.run_until(dep.sim.now + 30.0)
    assert stats["moved"] + stats["skipped"] == stats["total"]


# ---------------------------------------------------------------------------
# live traffic racing the migration window
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("topo,cons", COMBOS)
def test_writes_racing_migration_window(topo, cons):
    dep = _deploy(topo, cons)
    client = dep.client("c1")
    writer = dep.client("c2")
    sim = dep.sim

    def write_rounds():
        yield writer.connect()
        # four rounds of overwrites with small gaps so they land
        # before, during, and after the migration window
        for r in range(1, 5):
            for k in KEYS:
                yield writer.put(k, f"{k}.r{r}")
            yield 0.3

    def proc():
        yield client.connect()
        for k in KEYS:
            yield client.put(k, f"{k}.r0")
        racer = sim.spawn(write_rounds())
        stats = yield dep.request_reshard("add")
        yield racer
        yield client.connect()
        for k in KEYS:
            val = yield from _get_eventual(client, k)
            # dirty-skip: an in-window write must never be clobbered
            # by the migration copy — the last round always wins
            assert val == f"{k}.r4", f"{k}: migration clobbered {val!r}"
        # deletes route through the same dual-write path
        for k in KEYS[:6]:
            yield client.delete(k)
        for k in KEYS[:6]:
            yield from _gone_eventual(client, k)
        return stats

    stats = _run(dep, proc())
    assert stats["moved"] + stats["skipped"] == stats["total"]


# ---------------------------------------------------------------------------
# the coordinator's view of a cutover
# ---------------------------------------------------------------------------
def test_reshard_stats_and_view_log():
    dep = _deploy(Topology.MS, Consistency.STRONG)
    client = dep.client("c1")

    def proc():
        yield client.connect()
        for k in KEYS:
            yield client.put(k, "v")
        e0 = dep.coordinator.view.epoch
        stats = yield dep.request_reshard("add")
        return e0, stats

    e0, stats = _run(dep, proc())
    view = dep.coordinator.view
    # the window bumps the epoch twice: once opening, once committing
    assert stats["epoch"] >= e0 + 2
    assert stats["shard"] == "s2"
    # the census is the moved slice, not the whole keyspace
    assert stats["moved"] + stats["skipped"] == stats["total"]
    assert 0 < stats["total"] < len(KEYS)
    kinds = [t.kind for t in view.log]
    assert "reshard-begin" in kinds and "reshard-commit" in kinds
    assert kinds.index("reshard-begin") < kinds.index("reshard-commit")
    assert view.reshard is None and view.ring_gen == 1
    assert "s2" in view.ring_members()


# ---------------------------------------------------------------------------
# client keeps (and patches) its ring instead of rebuilding
# ---------------------------------------------------------------------------
def test_client_ring_is_patched_incrementally():
    dep = _deploy(Topology.MS, Consistency.EVENTUAL)
    client = dep.client("c1")

    head = dep.cluster.actor(dep.shard(1).head.controlet)

    def proc():
        yield client.connect()
        routing = client._routing
        ring = routing.ring
        epoch, gen = client.map.epoch, routing.gen
        yield client.connect()  # same epoch + gen: everything kept
        assert routing.ring is ring
        assert (client.map.epoch, routing.gen) == (epoch, gen)
        yield dep.request_reshard("add")
        yield client.connect()
        # membership changed, but the ring object was diffed in place
        assert routing.ring is ring
        assert "s2" in ring.members
        assert routing.gen == 1
        # the window is committed, so no dual-route state lingers
        assert routing.window is None and routing.old_ring is None
        # a controlet's gate is the same RingRouting: the ring it adopted
        # with the first window is patched in place by the next one
        head_ring = head._gate.ring
        yield dep.request_reshard("remove", shard="s0")
        yield client.connect()
        for r, kept in ((routing, ring), (head._gate, head_ring)):
            assert r.ring is kept and kept.members == ["s1", "s2"]
            assert r.gen == 2 and r.window is None and r.old_ring is None

    _run(dep, proc())


# ---------------------------------------------------------------------------
# a replica that rejoins after a committed reshard fences like its peers
# ---------------------------------------------------------------------------
def test_rejoined_replica_adopts_the_ring_with_its_membership():
    """Regression: a crash-restarted controlet confirmed its membership
    from the coordinator's ``shard_info`` but dropped the routing block
    of the same reply, so after a committed reshard the rejoined tail
    sat at ring generation 0 — no ownership fence — and served strong
    reads of moved keys from the stale copies left behind."""
    spec = DeploymentSpec(shards=2, replicas=3, topology=Topology.MS,
                          consistency=Consistency.STRONG, seed=7, standbys=1,
                          durable=True)
    dep = Deployment(spec)
    dep.start()
    client = dep.client("c1")

    def proc():
        yield client.connect()
        for k in KEYS:
            yield client.put(k, f"{k}.v0")
        yield dep.request_reshard("add")
        yield client.connect()

    _run(dep, proc(), until=300.0)
    tail = dep.shard(0).ordered()[-1]
    host = dep.kill_replica(0, chain_pos=tail.chain_pos)
    dep.sim.run_until(dep.sim.now + 0.5)
    dep.recover_host(host)
    dep.sim.run_until(dep.sim.now + 30.0)

    assert dep.shard(0).tail.controlet == tail.controlet  # it rejoined
    rejoined = dep.cluster.actor(tail.controlet)
    peer = dep.cluster.actor(dep.shard(0).head.controlet)
    assert not rejoined.retired and rejoined.recovered
    assert rejoined._gate.gen == peer._gate.gen == 1
    assert rejoined._gate.ring is not None
    leftovers = dep.cluster.actor(tail.datalet).engine
    moved = next(k for k in KEYS if leftovers.contains(k)
                 and client.shard_for(k).shard_id != dep.shard(0).shard_id)
    port = dep.cluster.add_port("raw")
    resp = dep.sim.run_future(
        port.request(tail.controlet, "get", {"key": moved}, timeout=5.0))
    assert (resp.type, resp.payload["error"]) == ("error", "wrong_shard")


# ---------------------------------------------------------------------------
# one dirty gate: marks stay bounded by the window that needs them
# ---------------------------------------------------------------------------
def _gates(dep):
    """Every reshard gate: one per controlet, the DLM's, and each
    shared-log sequencer's."""
    ctls = [a for a in dep.cluster.actors.values() if isinstance(a, Controlet)]
    assert ctls
    return ([c._gate for c in ctls] + [dep.dlm._gate]
            + [dep.cluster.actor(log)._gate for log in dep.sharedlogs.values()])


@pytest.mark.parametrize("topo,cons", COMBOS)
def test_reshard_marks_stay_bounded(topo, cons):
    dep = _deploy(topo, cons)
    client = dep.client("c1")
    writer = dep.client("c2")
    keys = [f"m{i}" for i in range(500)]
    marked, outside = set(), set()
    done = []

    def watch():
        # sample every gate while the window is open: a mark is only
        # ever for a key that window moves
        while not done:
            desc = dep.coordinator.view.reshard
            if desc is not None:
                old, new = HashRing(desc["old"]), HashRing(desc["new"])
                for gate in _gates(dep):
                    marked.update(gate.marks)
                    outside.update(k for k in gate.marks
                                   if old.lookup(k) == new.lookup(k))
            yield 0.005

    def write_rounds():
        while not done:
            yield writer.connect()  # dual-route as soon as a window opens
            for k in keys[:20]:
                yield writer.put(k, "w")

    # slow every copy into the incoming shard (its head, or its log)
    # so the window stays open for the writer to dual-route into it
    for i in (0, 1):
        for dst in ("node2.0", "sharedlog.s2"):
            dep.cluster.network.set_link_factor(dep.shard(i).head.host, dst, 50.0)

    def proc():
        yield client.connect()
        for k in keys:
            yield client.put(k, "v")
        # no reshard yet: nothing anywhere is marked
        assert [g.marks for g in _gates(dep) if g.marks] == []
        dep.sim.spawn(watch())
        racer = dep.sim.spawn(write_rounds())
        yield dep.request_reshard("add")
        yield 1.0
        done.append(True)
        yield racer
        # committing drops every mark
        assert [g.marks for g in _gates(dep) if g.marks] == []

    dep.sim.run_future(dep.sim.spawn(proc()), timeout=900.0)
    assert marked, "no write was marked during the window"
    assert outside == set(), f"marks outside the window's moved keys: {sorted(outside)}"


@pytest.mark.parametrize("topo,cons", COMBOS[:2])
def test_early_new_leg_write_survives_its_migrated_copy(topo, cons):
    """A client can dual-route by a window the destination head has not
    installed yet: at ring generation 0 its ownership fence is off, so
    the new-leg write is admitted with no window to judge it by.  The
    write's newer ``gen`` must still mark the key, or the migrated copy
    — read at the source before the write, landing after it — clobbers
    the newer value."""
    dep = _deploy(topo, cons)
    client = dep.client("c1")
    net = dep.cluster.network
    old, new = HashRing(["s0", "s1"]), HashRing(["s0", "s1", "s2"])
    key = next(k for k in (f"e{i}" for i in range(1000))
               if new.lookup(k) == "s2")
    source = dep.cluster.actor(dep.map.shard(old.lookup(key)).head.controlet)
    # the first add spawns shard s2 with its head on node2.0: the window
    # reaches that head 2 s late, the moved key's copy 0.3 s late (well
    # inside the copy's RPC timeout)
    new_head_host = "node2.0"
    net.set_link_factor("coordinator", new_head_host, 20000.0)
    net.set_link_factor(dep.cluster.host_of(source.node_id), new_head_host, 3000.0)
    shipped = []
    ship = source._ship_copy

    def recording_ship(k, *args, **kwargs):
        shipped.append(k)
        ship(k, *args, **kwargs)

    source._ship_copy = recording_ship
    dep.sim.run_future(client.connect())
    dep.sim.run_future(client.put(key, "v0"))
    reshard = dep.request_reshard("add")
    while not shipped:  # the source has read the key and shipped v0
        dep.sim.run_until(dep.sim.now + 0.001)
    new_head = dep.map.shard("s2").head
    assert new_head.host == new_head_host
    assert dep.cluster.actor(new_head.controlet).snapshot_state()["_gate.gen"] == 0
    port = dep.cluster.add_port("early")
    resp = dep.sim.run_future(port.request(
        new_head.controlet, "put", {"key": key, "val": "v1", "gen": 1},
        timeout=5.0))
    assert resp.type == "ok", resp.payload
    dep.sim.run_future(reshard)
    net.clear_degradations()
    dep.sim.run_until(dep.sim.now + 5.0)
    for r in dep.map.shard("s2").ordered():
        assert dep.cluster.actor(r.datalet).engine.get(key) == "v1", r.datalet
    dep.sim.run_future(client.connect())
    assert dep.sim.run_future(client.get(key)) == "v1"


# ---------------------------------------------------------------------------
# the source's duplicate-order guard
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("topo,cons", COMBOS[::2])
def test_duplicate_migrate_order_drives_one_migration(topo, cons):
    """A ``reshard_migrate`` order delivered twice (a fabric duplicate
    or a coordinator retry) starts one migration, not two: the copy
    that lands mid-census and a late one after the window committed
    are both dropped.  Each source reports one ``migrate_done`` whose
    ``total`` is its census, and ships each moved key once."""
    dep = _deploy(topo, cons)
    client = dep.client("c1")
    old, new = HashRing(["s0", "s1"]), HashRing(["s0", "s1", "s2"])
    orders, shipped, reports = [], {}, []
    for sid in ("s0", "s1"):
        source = dep.cluster.actor(dep.map.shard(sid).head.controlet)
        handler = source._handlers["reshard_migrate"]

        def twice(msg, handler=handler):
            orders.append((handler, msg))
            handler(msg)
            handler(msg)

        source._handlers["reshard_migrate"] = twice
        log = shipped[sid] = []
        ship = source._ship_copy

        def recording_ship(k, *args, ship=ship, log=log, **kwargs):
            log.append(k)
            ship(k, *args, **kwargs)

        source._ship_copy = recording_ship
    coord = dep.coordinator
    on_done = coord._handlers["migrate_done"]

    def recording_done(msg):
        reports.append(dict(msg.payload))
        on_done(msg)

    coord._handlers["migrate_done"] = recording_done

    def proc():
        yield client.connect()
        for k in KEYS:
            yield client.put(k, f"{k}.v0")
        yield dep.request_reshard("add")

    _run(dep, proc())
    assert len(orders) == 2
    for handler, msg in orders:  # the late duplicates
        handler(msg)
    dep.sim.run_until(dep.sim.now + 5.0)
    assert sorted(r["shard"] for r in reports) == ["s0", "s1"]
    for report in reports:
        sid = report["shard"]
        census = sorted(k for k in KEYS
                        if old.lookup(k) == sid and new.lookup(k) != sid)
        assert census, f"{sid} moves no key: the test proves nothing"
        assert report["total"] == report["moved"] == len(census)
        assert report["retries"] == 0
        assert shipped[sid] == census
