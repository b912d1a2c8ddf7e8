"""Real TCP front-end: expose any datalet engine as a network server.

This is the runnable equivalent of the paper artifact's ``conkv -l
<addr> -p <port>``: a threaded socket server hosting a storage engine
behind either wire protocol —

* **RESP** (``protocol="resp"``): the server understands
  SET/GET/DEL/EXISTS/SCAN/DBSIZE/PING/QUIT, so it looks like a small
  Redis (a drop-in tRedis datalet);
* **binary** (``protocol="binary"``): the framed BESPOKV protocol with
  ``{"op": ..., "key": ...}`` request bodies.

:class:`TcpKVClient` is the matching blocking client.  The quickstart
example and the TCP integration tests run a server on localhost and
drive it end-to-end — real sockets, no simulation.
"""

from __future__ import annotations

import socket
import socketserver
import threading
from typing import List, Optional, Tuple

from repro.datalet import Engine
from repro.errors import BespoError, KeyNotFound, ProtocolError
from repro.net import resp
from repro.net.protocol import BinaryCodec, INCOMPLETE as FRAME_INCOMPLETE

__all__ = ["DataletServer", "TcpKVClient"]


def _as_text(value) -> str:
    return value.decode() if isinstance(value, bytes) else str(value)


class _RespHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:  # noqa: D102 - socketserver plumbing
        parser = resp.RespParser()
        engine: Engine = self.server.engine  # type: ignore[attr-defined]
        lock: threading.Lock = self.server.engine_lock  # type: ignore[attr-defined]
        while True:
            try:
                data = self.request.recv(65536)
            except ConnectionError:
                return
            if not data:
                return
            parser.feed(data)
            while True:
                try:
                    value = parser.next_value()
                except ProtocolError as e:
                    self.request.sendall(resp.encode_error(f"ERR protocol: {e}"))
                    return
                if value is resp.INCOMPLETE:
                    break
                reply = self._dispatch(engine, lock, value)
                if reply is None:
                    return  # QUIT
                self.request.sendall(reply)

    def _dispatch(self, engine: Engine, lock: threading.Lock, value) -> Optional[bytes]:
        if not isinstance(value, list) or not value:
            return resp.encode_error("ERR expected command array")
        cmd = _as_text(value[0]).upper()
        args = [_as_text(a) for a in value[1:]]
        try:
            with lock:
                if cmd == "PING":
                    return resp.encode_simple("PONG")
                if cmd == "QUIT":
                    self.request.sendall(resp.encode_simple("OK"))
                    return None
                if cmd == "SET" and len(args) == 2:
                    engine.put(args[0], args[1])
                    return resp.encode_simple("OK")
                if cmd == "GET" and len(args) == 1:
                    try:
                        return resp.encode_bulk(engine.get(args[0]))
                    except KeyNotFound:
                        return resp.encode_bulk(None)
                if cmd == "DEL" and len(args) >= 1:
                    removed = 0
                    for key in args:
                        try:
                            engine.delete(key)
                            removed += 1
                        except KeyNotFound:
                            pass
                    return resp.encode_integer(removed)
                if cmd == "EXISTS" and len(args) == 1:
                    return resp.encode_integer(1 if engine.contains(args[0]) else 0)
                if cmd == "DBSIZE":
                    return resp.encode_integer(len(engine))
                if cmd == "SCAN" and len(args) in (2, 3):
                    limit = int(args[2]) if len(args) == 3 else None
                    try:
                        items = engine.scan(args[0], args[1], limit)
                    except NotImplementedError as e:
                        return resp.encode_error(f"ERR {e}")
                    flat: List[bytes] = []
                    for k, v in items:
                        flat.append(resp.encode_bulk(k))
                        flat.append(resp.encode_bulk(v))
                    return resp.encode_array(flat)
        except Exception as e:  # noqa: BLE001 - wire boundary
            return resp.encode_error(f"ERR {e}")
        return resp.encode_error(f"ERR unknown command {cmd!r}")


class _BinaryHandler(socketserver.BaseRequestHandler):
    def handle(self) -> None:  # noqa: D102 - socketserver plumbing
        codec = BinaryCodec()
        engine: Engine = self.server.engine  # type: ignore[attr-defined]
        lock: threading.Lock = self.server.engine_lock  # type: ignore[attr-defined]
        while True:
            try:
                data = self.request.recv(65536)
            except ConnectionError:
                return
            if not data:
                return
            codec.feed(data)
            while True:
                try:
                    frame = codec.next_frame()
                except ProtocolError as e:
                    self.request.sendall(BinaryCodec.encode({"ok": False, "error": str(e)}))
                    return
                if frame is FRAME_INCOMPLETE:
                    break
                self.request.sendall(BinaryCodec.encode(self._dispatch(engine, lock, frame)))

    @staticmethod
    def _dispatch(engine: Engine, lock: threading.Lock, frame: dict) -> dict:
        op = frame.get("op")
        key = frame.get("key", "")
        try:
            with lock:
                if op == "put":
                    engine.put(key, frame["val"])
                    return {"ok": True}
                if op == "get":
                    try:
                        return {"ok": True, "val": engine.get(key)}
                    except KeyNotFound:
                        return {"ok": False, "error": "not_found"}
                if op == "del":
                    try:
                        engine.delete(key)
                        return {"ok": True}
                    except KeyNotFound:
                        return {"ok": False, "error": "not_found"}
                if op == "scan":
                    try:
                        items = engine.scan(frame["start"], frame["end"], frame.get("limit"))
                    except NotImplementedError as e:
                        return {"ok": False, "error": str(e)}
                    return {"ok": True, "items": [[k, v] for k, v in items]}
                if op == "size":
                    return {"ok": True, "size": len(engine)}
        except Exception as e:  # noqa: BLE001 - wire boundary
            return {"ok": False, "error": str(e)}
        return {"ok": False, "error": f"unknown op {op!r}"}


class DataletServer:
    """Threaded TCP server hosting one engine.

    >>> server = DataletServer(HashTableEngine(), protocol="resp")
    >>> host, port = server.start()          # background thread
    >>> ... connect with TcpKVClient or redis-cli ...
    >>> server.stop()
    """

    def __init__(self, engine: Engine, protocol: str = "resp", host: str = "127.0.0.1",
                 port: int = 0):
        if protocol not in ("resp", "binary"):
            raise BespoError(f"unknown protocol {protocol!r}")
        handler = _RespHandler if protocol == "resp" else _BinaryHandler
        self.protocol = protocol
        self._server = socketserver.ThreadingTCPServer((host, port), handler,
                                                       bind_and_activate=True)
        self._server.daemon_threads = True
        self._server.allow_reuse_address = True
        self._server.engine = engine  # type: ignore[attr-defined]
        self._server.engine_lock = threading.Lock()  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.server_address  # type: ignore[return-value]

    def start(self) -> Tuple[str, int]:
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self.address

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)

    def __enter__(self) -> "DataletServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class TcpKVClient:
    """Blocking client for :class:`DataletServer` (both protocols)."""

    def __init__(self, host: str, port: int, protocol: str = "resp", timeout: float = 5.0):
        if protocol not in ("resp", "binary"):
            raise BespoError(f"unknown protocol {protocol!r}")
        self.protocol = protocol
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._resp = resp.RespParser()
        self._codec = BinaryCodec()

    # -- low-level -------------------------------------------------------
    def _resp_call(self, *args: str):
        self._sock.sendall(resp.encode_command(*args))
        while True:
            value = self._resp.next_value()
            if value is not resp.INCOMPLETE:
                if isinstance(value, resp.ProtocolErrorValue):
                    raise BespoError(str(value))
                return value
            data = self._sock.recv(65536)
            if not data:
                raise BespoError("server closed connection")
            self._resp.feed(data)

    def _binary_call(self, frame: dict) -> dict:
        self._sock.sendall(BinaryCodec.encode(frame))
        while True:
            reply = self._codec.next_frame()
            if reply is not FRAME_INCOMPLETE:
                return reply
            data = self._sock.recv(65536)
            if not data:
                raise BespoError("server closed connection")
            self._codec.feed(data)

    # -- public API --------------------------------------------------------
    def put(self, key: str, val: str) -> None:
        if self.protocol == "resp":
            self._resp_call("SET", key, val)
        else:
            reply = self._binary_call({"op": "put", "key": key, "val": val})
            if not reply.get("ok"):
                raise BespoError(reply.get("error", "put failed"))

    def get(self, key: str) -> str:
        if self.protocol == "resp":
            value = self._resp_call("GET", key)
            if value is None:
                raise KeyNotFound(key)
            return _as_text(value)
        reply = self._binary_call({"op": "get", "key": key})
        if not reply.get("ok"):
            if reply.get("error") == "not_found":
                raise KeyNotFound(key)
            raise BespoError(reply.get("error", "get failed"))
        return reply["val"]

    def delete(self, key: str) -> None:
        if self.protocol == "resp":
            if self._resp_call("DEL", key) == 0:
                raise KeyNotFound(key)
            return
        reply = self._binary_call({"op": "del", "key": key})
        if not reply.get("ok"):
            if reply.get("error") == "not_found":
                raise KeyNotFound(key)
            raise BespoError(reply.get("error", "delete failed"))

    def scan(self, start: str, end: str, limit: Optional[int] = None) -> List[Tuple[str, str]]:
        if self.protocol == "resp":
            args = ["SCAN", start, end] + ([str(limit)] if limit is not None else [])
            flat = self._resp_call(*args)
            pairs = list(zip(flat[0::2], flat[1::2]))
            return [(_as_text(k), _as_text(v)) for k, v in pairs]
        reply = self._binary_call({"op": "scan", "start": start, "end": end, "limit": limit})
        if not reply.get("ok"):
            raise BespoError(reply.get("error", "scan failed"))
        return [(k, v) for k, v in reply["items"]]

    def ping(self) -> bool:
        if self.protocol == "resp":
            return self._resp_call("PING") == "PONG"
        return self._binary_call({"op": "size"}).get("ok", False)

    def size(self) -> int:
        if self.protocol == "resp":
            return int(self._resp_call("DBSIZE"))
        return int(self._binary_call({"op": "size"})["size"])

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - teardown best effort
            pass

    def __enter__(self) -> "TcpKVClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
