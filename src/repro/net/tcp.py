"""Real TCP front-end: expose any datalet engine as a network server.

This is the runnable equivalent of the paper artifact's ``conkv -l
<addr> -p <port>``: a threaded socket server hosting a storage engine
behind either wire protocol —

* **RESP** (``protocol="resp"``): the server understands
  SET/GET/DEL/EXISTS/SCAN/DBSIZE/PING/QUIT, so it looks like a small
  Redis (a drop-in tRedis datalet);
* **binary** (``protocol="binary"``): the framed BESPOKV protocol with
  ``{"op": ..., "key": ...}`` request bodies.

One serve loop runs both: per ``recv`` it answers every complete
request with one ``sendall``.  It imports the engine contract and the
codecs only, never the simulator or the actor fabric.

:class:`TcpKVClient` is the matching blocking client.  The quickstart
example and the TCP integration tests run a server on localhost and
drive it end-to-end — real sockets, no simulation.
"""

from __future__ import annotations

import contextlib
import socket
import socketserver
import threading
from typing import List, Optional, Set, Tuple

from repro.datalet.engine import Engine
from repro.errors import BespoError, KeyNotFound, ProtocolError
from repro.net import resp
from repro.net.protocol import BinaryCodec, INCOMPLETE as FRAME_INCOMPLETE

__all__ = ["DataletServer", "TcpKVClient"]

_OK = resp.encode_simple("OK")
#: one-step encodings of the two hot commands (key, then value, bytes)
_GET = b"*2\r\n$3\r\nGET\r\n$%d\r\n%s\r\n"
_SET = b"*3\r\n$3\r\nSET\r\n$%d\r\n%s\r\n$%d\r\n%s\r\n"


def _as_text(value) -> str:
    return value.decode() if isinstance(value, bytes) else str(value)


# -- RESP commands: name -> (handler(engine, args) -> reply, min, max args) --
def _resp_get(engine: Engine, args: List[str]) -> bytes:
    try:
        return resp.encode_bulk(engine.get(args[0]))
    except KeyNotFound:
        return resp.encode_bulk(None)


def _resp_del(engine: Engine, args: List[str]) -> bytes:
    removed = 0
    for key in args:
        try:
            engine.delete(key)
            removed += 1
        except KeyNotFound:
            pass
    return resp.encode_integer(removed)


def _resp_scan(engine: Engine, args: List[str]) -> bytes:
    limit = int(args[2]) if len(args) == 3 else None
    items = engine.scan(args[0], args[1], limit)  # a hash engine raises: "ERR ..."
    return resp.encode_array([resp.encode_bulk(x) for pair in items for x in pair])


_ANY = 1 << 30
_RESP_COMMANDS = {
    "PING": (lambda engine, args: resp.encode_simple("PONG"), 0, _ANY),
    "QUIT": (lambda engine, args: None, 0, _ANY),
    "SET": (lambda engine, args: engine.put(*args) or _OK, 2, 2),  # put() returns None
    "GET": (_resp_get, 1, 1),
    "DEL": (_resp_del, 1, _ANY),
    "EXISTS": (lambda engine, args: resp.encode_integer(int(engine.contains(args[0]))), 1, 1),
    "DBSIZE": (lambda engine, args: resp.encode_integer(len(engine)), 0, _ANY),
    "SCAN": (_resp_scan, 2, 3),
}


def _resp_dispatch(engine: Engine, value) -> Optional[bytes]:
    if not isinstance(value, list) or not value:
        return resp.encode_error("ERR expected command array")
    try:
        cmd = _as_text(value[0]).upper()
        args = [_as_text(a) for a in value[1:]]
        handler, least, most = _RESP_COMMANDS.get(cmd, (None, 0, -1))
        if not least <= len(args) <= most:
            return resp.encode_error(f"ERR unknown command {cmd!r}")
        return handler(engine, args)
    except Exception as e:  # noqa: BLE001 - wire boundary
        return resp.encode_error(f"ERR {e}")


#: binary ops: name -> handler(engine, frame) -> the reply's fields past "ok"
_BINARY_OPS = {
    "put": lambda engine, frame: engine.put(frame.get("key", ""), frame["val"]),
    "get": lambda engine, frame: {"val": engine.get(frame.get("key", ""))},
    "del": lambda engine, frame: engine.delete(frame.get("key", "")),
    "scan": lambda engine, frame: {"items": [list(kv) for kv in engine.scan(
        frame["start"], frame["end"], frame.get("limit"))]},
    "size": lambda engine, frame: {"size": len(engine)},
}


def _binary_reply(engine: Engine, frame: dict) -> dict:
    op = frame.get("op")
    handler = _BINARY_OPS.get(op) if isinstance(op, str) else None
    if handler is None:
        return {"ok": False, "error": f"unknown op {op!r}"}
    try:
        return {"ok": True, **(handler(engine, frame) or {})}
    except KeyNotFound:
        return {"ok": False, "error": "not_found"}
    except Exception as e:  # noqa: BLE001 - wire boundary
        return {"ok": False, "error": str(e)}


#: protocol -> (decoder class, its next-value method, its INCOMPLETE,
#: dispatch(engine, request) -> reply bytes or None for QUIT, and the
#: reply to a malformed request, which ends the connection)
_PROTOCOLS = {
    "resp": (resp.RespParser, "next_value", resp.INCOMPLETE, _resp_dispatch,
             lambda e: resp.encode_error(f"ERR protocol: {e}")),
    "binary": (BinaryCodec, "next_frame", FRAME_INCOMPLETE,
               lambda engine, frame: BinaryCodec.encode(_binary_reply(engine, frame)),
               lambda e: BinaryCodec.encode({"ok": False, "error": str(e)})),
}


class _Handler(socketserver.BaseRequestHandler):
    def handle(self) -> None:  # noqa: D102 - socketserver plumbing
        server, sock = self.server, self.request
        decoder_cls, next_name, incomplete, dispatch, on_error = _PROTOCOLS[server.protocol]
        decoder = decoder_cls()
        next_request, engine, lock = getattr(decoder, next_name), server.engine, server.engine_lock
        try:
            while True:
                data = sock.recv(65536)
                if not data:
                    return
                decoder.feed(data)
                replies: List[bytes] = []
                closing = False
                with lock:
                    try:
                        request = next_request()
                        while request is not incomplete:
                            reply = dispatch(engine, request)
                            closing = reply is None  # QUIT
                            replies.append(_OK if closing else reply)
                            request = incomplete if closing else next_request()
                    except ProtocolError as e:
                        replies.append(on_error(e))
                        closing = True
                if replies:
                    sock.sendall(b"".join(replies))
                if closing:
                    return
        except OSError:  # the peer went away, or stop() shut the connection
            return


class _Server(socketserver.ThreadingTCPServer):
    # class attributes, so that they hold when the constructor binds:
    # SO_REUSEADDR lets ``serve --port N`` restart over TIME_WAIT
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], engine: Engine, protocol: str):
        self.engine, self.engine_lock, self.protocol = engine, threading.Lock(), protocol
        self.live: Set[socket.socket] = set()  # open connections, for stop() to shut
        super().__init__(address, _Handler)

    def process_request(self, request, client_address) -> None:
        self.live.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        self.live.discard(request)
        super().shutdown_request(request)


class DataletServer:
    """Threaded TCP server hosting one engine.

    >>> server = DataletServer(HashTableEngine(), protocol="resp")
    >>> host, port = server.start()          # background thread
    >>> ... connect with TcpKVClient or redis-cli ...
    >>> server.stop()
    """

    def __init__(self, engine: Engine, protocol: str = "resp", host: str = "127.0.0.1",
                 port: int = 0):
        if protocol not in _PROTOCOLS:
            raise BespoError(f"unknown protocol {protocol!r}")
        self.protocol = protocol
        self._server = _Server((host, port), engine, protocol)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        return self._server.server_address  # type: ignore[return-value]

    def start(self) -> Tuple[str, int]:
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self.address

    def stop(self) -> None:
        """Stop accepting, then shut every open connection: a connected
        client's next call fails instead of being served."""
        self._server.shutdown()
        self._server.server_close()
        for sock in self._server.live.copy():
            with contextlib.suppress(OSError):  # closed by its own handler meanwhile
                sock.shutdown(socket.SHUT_RDWR)
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
        if protocol not in _PROTOCOLS:
            raise BespoError(f"unknown protocol {protocol!r}")
        self.protocol = protocol
        self._sock = socket.create_connection((host, port), timeout=timeout)
        decoder_cls, next_name, self._incomplete = _PROTOCOLS[protocol][:3]
        self._decoder = decoder_cls()
        self._next_reply = getattr(self._decoder, next_name)

    # -- low-level -------------------------------------------------------
    def _call(self, request: bytes):
        """Send one encoded request and read its reply."""
        self._sock.sendall(request)
        while True:
            reply = self._next_reply()
            if reply is not self._incomplete:
                return reply
            data = self._sock.recv(65536)
            if not data:
                raise BespoError("server closed connection")
            self._decoder.feed(data)

    def _resp(self, request: bytes):
        value = self._call(request)
        if isinstance(value, resp.ProtocolErrorValue):
            raise BespoError(str(value))
        return value

    def _resp_call(self, *args: str):
        return self._resp(resp.encode_command(*args))

    def _binary_call(self, what: str, **frame) -> dict:
        reply = self._call(BinaryCodec.encode(frame))
        if not reply.get("ok"):
            if reply.get("error") == "not_found":
                raise KeyNotFound(frame["key"])
            raise BespoError(reply.get("error", f"{what} failed"))
        return reply

    # -- public API --------------------------------------------------------
    def put(self, key: str, val: str) -> None:
        if self.protocol == "binary":
            self._binary_call("put", op="put", key=key, val=val)
        else:
            k, v = key.encode(), val.encode()
            self._resp(_SET % (len(k), k, len(v), v))

    def get(self, key: str) -> str:
        if self.protocol == "binary":
            return self._binary_call("get", op="get", key=key)["val"]
        k = key.encode()
        value = self._resp(_GET % (len(k), k))
        if value is None:
            raise KeyNotFound(key)
        return _as_text(value)

    def delete(self, key: str) -> None:
        if self.protocol == "binary":
            self._binary_call("delete", op="del", key=key)
        elif self._resp_call("DEL", key) == 0:
            raise KeyNotFound(key)

    def scan(self, start: str, end: str, limit: Optional[int] = None) -> List[Tuple[str, str]]:
        if self.protocol == "binary":
            reply = self._binary_call("scan", op="scan", start=start, end=end, limit=limit)
            return [(k, v) for k, v in reply["items"]]
        flat = self._resp_call("SCAN", start, end, *([] if limit is None else [str(limit)]))
        return [(_as_text(k), _as_text(v)) for k, v in zip(flat[0::2], flat[1::2])]

    def ping(self) -> bool:
        if self.protocol == "resp":
            return self._resp_call("PING") == "PONG"
        return self._call(BinaryCodec.encode({"op": "size"})).get("ok", False)

    def size(self) -> int:
        if self.protocol == "resp":
            return int(self._resp_call("DBSIZE"))
        return int(self._binary_call("size", op="size")["size"])

    def close(self) -> None:
        with contextlib.suppress(OSError):  # teardown best effort
            self._sock.close()

    def __enter__(self) -> "TcpKVClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
