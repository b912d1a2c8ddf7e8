"""RESP (REdis Serialization Protocol) codec.

BESPOKV ports existing stores by accepting "a parser for their own
protocols"; SSDB and Redis both speak simple text protocols (§III-A,
§VII).  This is an incremental RESP2 parser/serializer: feed it bytes
as they arrive off a socket, pull complete values out.  Used by the
real TCP front-end to expose any datalet engine as a Redis-compatible
server (tRedis).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from repro.errors import ProtocolError

__all__ = ["RespParser", "INCOMPLETE", "encode_command", "encode_bulk", "encode_error",
           "encode_simple", "encode_integer", "encode_array", "ProtocolErrorValue"]


class _Incomplete:
    """Sentinel: the parser needs more bytes before a value is ready."""

    def __bool__(self) -> bool:
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<resp-incomplete>"


INCOMPLETE = _Incomplete()

#: longest header line (type marker up to its CRLF) a peer may send:
#: past it, bytes with no CRLF are rejected instead of buffered.
MAX_LINE = 64 * 1024

RespValue = Union[str, bytes, int, None, List["RespValue"]]


def encode_bulk(value: Optional[Union[str, bytes]]) -> bytes:
    """Bulk string (``$<len>\\r\\n<data>\\r\\n``); None encodes the null
    bulk string RESP uses for cache misses."""
    if value is None:
        return b"$-1\r\n"
    data = value.encode() if isinstance(value, str) else value
    return b"$" + str(len(data)).encode() + b"\r\n" + data + b"\r\n"


def encode_simple(value: str) -> bytes:
    if "\r" in value or "\n" in value:
        raise ProtocolError("simple strings cannot contain CR/LF")
    return b"+" + value.encode() + b"\r\n"


def encode_error(message: str) -> bytes:
    return b"-" + message.replace("\r", " ").replace("\n", " ").encode() + b"\r\n"


def encode_integer(value: int) -> bytes:
    return b":" + str(value).encode() + b"\r\n"


def encode_array(items: List[bytes]) -> bytes:
    """Array of already-encoded elements."""
    return b"*" + str(len(items)).encode() + b"\r\n" + b"".join(items)


def encode_command(*args: Union[str, bytes]) -> bytes:
    """Client-side command encoding: array of bulk strings."""
    return encode_array([encode_bulk(a) for a in args])


class RespParser:
    """Incremental RESP2 decoder.

    >>> p = RespParser()
    >>> p.feed(b"*2\\r\\n$3\\r\\nGET\\r\\n$1\\r\\nk\\r\\n")
    >>> p.next_value()
    [b'GET', b'k']
    """

    def __init__(self, max_bulk: int = 64 * 1024 * 1024):
        self._buf = bytearray()
        self._max_bulk = max_bulk

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)

    def next_value(self) -> RespValue:
        """Decode one complete value.

        Returns the module-level :data:`INCOMPLETE` sentinel when more
        bytes are needed (``None`` is a legal decoded value — the null
        bulk string).  Raises :class:`ProtocolError` on malformed input.
        """
        result = self._parse(0)
        if result is None:
            return INCOMPLETE
        value, consumed = result
        del self._buf[:consumed]
        return None if value is NullValue else value

    # -- internals -------------------------------------------------------
    def _line_end(self, start: int) -> Optional[int]:
        idx = self._buf.find(b"\r\n", start)
        return None if idx < 0 else idx

    def _parse(self, pos: int) -> Optional[Tuple[RespValue, int]]:
        if pos >= len(self._buf):
            return None
        marker = self._buf[pos : pos + 1]
        end = self._line_end(pos + 1)
        if end is None:
            if len(self._buf) - pos > MAX_LINE:
                raise ProtocolError(f"line longer than {MAX_LINE} bytes without CRLF")
            return None
        header = bytes(self._buf[pos + 1 : end])
        after = end + 2

        if marker == b"+":
            return header.decode(), after
        if marker == b"-":
            return ProtocolErrorValue(header.decode()), after
        if marker == b":":
            try:
                return int(header), after
            except ValueError:
                raise ProtocolError(f"bad integer: {header!r}") from None
        if marker == b"$":
            try:
                length = int(header)
            except ValueError:
                raise ProtocolError(f"bad bulk length: {header!r}") from None
            if length == -1:
                return NullValue, after
            if length < 0 or length > self._max_bulk:
                raise ProtocolError(f"bulk length out of range: {length}")
            if len(self._buf) < after + length + 2:
                return None
            data = bytes(self._buf[after : after + length])
            if self._buf[after + length : after + length + 2] != b"\r\n":
                raise ProtocolError("bulk string missing CRLF terminator")
            return data, after + length + 2
        if marker == b"*":
            try:
                count = int(header)
            except ValueError:
                raise ProtocolError(f"bad array length: {header!r}") from None
            if count == -1:
                return NullValue, after
            if count < 0:
                raise ProtocolError(f"array length out of range: {count}")
            items: List[RespValue] = []
            cursor = after
            for _ in range(count):
                sub = self._parse(cursor)
                if sub is None:
                    return None
                value, cursor = sub
                items.append(None if value is NullValue else value)
            return items, cursor
        raise ProtocolError(f"unknown RESP type marker: {marker!r}")


class _Null:
    """Internal sentinel distinguishing 'incomplete' from 'null bulk'."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<resp-null>"


NullValue = _Null()


class ProtocolErrorValue(str):
    """An ``-ERR ...`` reply decoded from the wire (kept as a str
    subclass so callers can distinguish it from data)."""
