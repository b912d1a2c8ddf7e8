"""End-to-end TCP tests: real sockets on localhost, both protocols."""

import threading

import pytest

from repro.datalet import BTreeEngine, HashTableEngine
from repro.errors import BespoError, KeyNotFound
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
