"""End-to-end TCP tests: real sockets on localhost, both protocols."""

import socket
import struct
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.datalet import BTreeEngine, HashTableEngine
from repro.errors import BespoError, KeyNotFound
from repro.net import resp
from repro.net.protocol import BinaryCodec, INCOMPLETE as FRAME_INCOMPLETE
from repro.net.tcp import DataletServer, TcpKVClient


@pytest.fixture(params=["resp", "binary"])
def server_client(request):
    engine = BTreeEngine()
    with DataletServer(engine, protocol=request.param) as server:
        host, port = server.address
        with TcpKVClient(host, port, protocol=request.param) as client:
            yield engine, client


def test_put_get_over_tcp(server_client):
    _, client = server_client
    client.put("k", "v")
    assert client.get("k") == "v"


def test_get_missing_over_tcp(server_client):
    _, client = server_client
    with pytest.raises(KeyNotFound):
        client.get("nope")


def test_delete_over_tcp(server_client):
    _, client = server_client
    client.put("k", "v")
    client.delete("k")
    with pytest.raises(KeyNotFound):
        client.get("k")
    with pytest.raises(KeyNotFound):
        client.delete("k")


def test_delete_engine_error_is_not_key_not_found(server_client):
    engine, client = server_client

    def broken(key):
        raise RuntimeError("engine fault")

    engine.delete = broken
    with pytest.raises(BespoError, match="engine fault") as info:
        client.delete("k")
    assert not isinstance(info.value, KeyNotFound)


def test_scan_over_tcp(server_client):
    _, client = server_client
    for i in range(20):
        client.put(f"k{i:02d}", str(i))
    items = client.scan("k05", "k10")
    assert items == [(f"k{i:02d}", str(i)) for i in range(5, 10)]
    assert len(client.scan("k00", "k99", limit=3)) == 3


def test_ping_and_size(server_client):
    _, client = server_client
    assert client.ping()
    client.put("a", "1")
    client.put("b", "2")
    assert client.size() == 2


def test_values_with_unicode_and_binaryish_content(server_client):
    _, client = server_client
    client.put("key", "päyload ✓ with spaces\tand tabs")
    assert client.get("key") == "päyload ✓ with spaces\tand tabs"


def test_large_value_roundtrip(server_client):
    _, client = server_client
    big = "x" * 500_000
    client.put("big", big)
    assert client.get("big") == big


def test_concurrent_clients():
    engine = HashTableEngine()
    with DataletServer(engine, protocol="resp") as server:
        host, port = server.address
        errors = []

        def worker(wid):
            try:
                with TcpKVClient(host, port) as c:
                    for i in range(50):
                        c.put(f"w{wid}.k{i}", str(i))
                        assert c.get(f"w{wid}.k{i}") == str(i)
            except Exception as e:  # noqa: BLE001
                errors.append(e)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(engine) == 400


def test_scan_rejected_on_hash_engine():
    with DataletServer(HashTableEngine(), protocol="resp") as server:
        host, port = server.address
        with TcpKVClient(host, port) as client:
            with pytest.raises(BespoError):
                client.scan("a", "z")


def test_unknown_command_resp():
    with DataletServer(HashTableEngine(), protocol="resp") as server:
        host, port = server.address
        with TcpKVClient(host, port) as client:
            with pytest.raises(BespoError):
                client._resp_call("FLUSHALL")


def test_invalid_protocol_rejected():
    with pytest.raises(BespoError):
        DataletServer(HashTableEngine(), protocol="grpc")
    with DataletServer(HashTableEngine()) as server:
        host, port = server.address
        with pytest.raises(BespoError):
            TcpKVClient(host, port, protocol="grpc")


# ---------------------------------------------------------------------------
# lifecycle: what stop() closes, and the listening socket's options
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("protocol", ["resp", "binary"])
def test_stop_shuts_connected_clients(protocol):
    server = DataletServer(HashTableEngine(), protocol=protocol)
    host, port = server.start()
    with TcpKVClient(host, port, protocol=protocol, timeout=2.0) as client:
        client.put("a", "1")
        server.stop()
        with pytest.raises((BespoError, OSError)):
            client.get("a")


def test_listening_socket_sets_reuseaddr_before_bind():
    with DataletServer(HashTableEngine()) as server:
        sock = server._server.socket
        assert sock.getsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR) != 0


# ---------------------------------------------------------------------------
# batches: everything one recv completes is answered in order, in one reply
# ---------------------------------------------------------------------------
_binary = BinaryCodec.encode

#: per protocol: GET k, SET k v, GET k, then a malformed request, and
#: the bytes the server answers them with
BATCHES = {
    "resp": (
        resp.encode_command("GET", "k") + resp.encode_command("SET", "k", "v")
        + resp.encode_command("GET", "k") + b"?bad\r\n",
        b"$-1\r\n+OK\r\n$1\r\nv\r\n"
        b"-ERR protocol: unknown RESP type marker: bytearray(b'?')\r\n",
    ),
    "binary": (
        _binary({"op": "get", "key": "k"}) + _binary({"op": "put", "key": "k", "val": "v"})
        + _binary({"op": "get", "key": "k"}) + struct.pack(">I", 3) + b"bad",
        _binary({"ok": False, "error": "not_found"}) + _binary({"ok": True})
        + _binary({"ok": True, "val": "v"})
        + _binary({"ok": False, "error": "bad frame body: Expecting value: line 1 column 1 "
                   "(char 0)"}),
    ),
}


def _read_to_eof(sock: socket.socket) -> bytes:
    out = b""
    while True:
        data = sock.recv(65536)
        if not data:
            return out
        out += data


@pytest.mark.parametrize("protocol", sorted(BATCHES))
def test_batch_answers_in_order_then_protocol_error_then_eof(protocol):
    request, expected = BATCHES[protocol]
    with DataletServer(HashTableEngine(), protocol=protocol) as server:
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(request)
            assert _read_to_eof(sock) == expected


def test_quit_mid_batch_answers_earlier_commands_then_closes():
    with DataletServer(HashTableEngine()) as server:
        with socket.create_connection(server.address, timeout=5) as sock:
            sock.sendall(resp.encode_command("SET", "k", "v") + resp.encode_command("GET", "k")
                         + resp.encode_command("QUIT") + resp.encode_command("GET", "k"))
            assert _read_to_eof(sock) == b"+OK\r\n$1\r\nv\r\n+OK\r\n"


keys = st.sampled_from(["a", "b", "c"])
values = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8)
#: abstract ops, each sent as one RESP command or one binary frame
ops = st.one_of(
    st.tuples(st.just("get"), keys),
    st.tuples(st.just("put"), keys, values),
    st.tuples(st.just("del"), keys),
    st.tuples(st.just("size")),
    st.tuples(st.just("nope"), keys),
)
RESP_NAMES = {"get": "GET", "put": "SET", "del": "DEL", "size": "DBSIZE", "nope": "NOPE"}
DECODERS = {"resp": (resp.RespParser, "next_value", resp.INCOMPLETE),
            "binary": (BinaryCodec, "next_frame", FRAME_INCOMPLETE)}


def _encode(protocol: str, op) -> bytes:
    if protocol == "resp":
        return resp.encode_command(RESP_NAMES[op[0]], *op[1:])
    return _binary(dict(zip(("op", "key", "val"), op)))


def _one_reply(sock: socket.socket, protocol: str, decoder) -> bytes:
    """Raw bytes of the next reply (one request is in flight, so a recv
    holds no more than its reply)."""
    _, next_name, incomplete = DECODERS[protocol]
    raw = b""
    while True:
        data = sock.recv(65536)
        assert data, "server closed mid-reply"
        raw += data
        decoder.feed(data)
        if getattr(decoder, next_name)() is not incomplete:
            return raw


@pytest.fixture(scope="module", params=sorted(DECODERS))
def pipeline_server(request):
    engine = HashTableEngine()
    with DataletServer(engine, protocol=request.param) as server:
        yield request.param, engine, server.address


@settings(max_examples=40, deadline=None)
@given(batch=st.lists(ops, min_size=1, max_size=12), data=st.data())
def test_any_chop_of_a_pipeline_answers_like_one_at_a_time(pipeline_server, batch, data):
    protocol, engine, address = pipeline_server
    requests = [_encode(protocol, op) for op in batch]
    engine.clear()
    with socket.create_connection(address, timeout=5) as sock:
        decoder = DECODERS[protocol][0]()
        expected = b""
        for request in requests:
            sock.sendall(request)
            expected += _one_reply(sock, protocol, decoder)

    stream = b"".join(requests)
    cuts = sorted(data.draw(st.sets(st.integers(1, len(stream) - 1), max_size=8)))
    engine.clear()
    with socket.create_connection(address, timeout=5) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for start, stop in zip([0] + cuts, cuts + [len(stream)]):
            sock.sendall(stream[start:stop])
        got = b""
        while len(got) < len(expected):
            chunk = sock.recv(65536)
            assert chunk, "server closed early"
            got += chunk
    assert got == expected
