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
    return b"$%d\r\n%s\r\n" % (len(data), data)


def encode_simple(value: str) -> bytes:
    if "\r" in value or "\n" in value:
        raise ProtocolError("simple strings cannot contain CR/LF")
    return b"+%s\r\n" % value.encode()


def encode_error(message: str) -> bytes:
    return b"-%s\r\n" % message.replace("\r", " ").replace("\n", " ").encode()


def encode_integer(value: int) -> bytes:
    return b":%d\r\n" % value


def encode_array(items: List[bytes]) -> bytes:
    """Array of already-encoded elements."""
    return b"*%d\r\n%s" % (len(items), b"".join(items))


def encode_command(*args: Union[str, bytes]) -> bytes:
    """Client-side command encoding: array of bulk strings."""
    return encode_array([encode_bulk(a) for a in args])


_SIMPLE, _ERROR, _INTEGER, _BULK, _ARRAY = b"+-:$*"   # type markers, as ints


class RespParser:
    """Incremental RESP2 decoder.

    Values are decoded in place from a read position; consumed bytes
    are dropped once per :meth:`feed`, not once per value.

    >>> p = RespParser()
    >>> p.feed(b"*2\\r\\n$3\\r\\nGET\\r\\n$1\\r\\nk\\r\\n")
    >>> p.next_value()
    [b'GET', b'k']
    """

    def __init__(self, max_bulk: int = 64 * 1024 * 1024):
        self._buf = bytearray()
        self._pos = 0
        self._max_bulk = max_bulk

    def feed(self, data: bytes) -> None:
        del self._buf[: self._pos]  # what the last values consumed
        self._pos = 0
        self._buf += data

    def next_value(self) -> RespValue:
        """Decode one complete value.

        Returns the module-level :data:`INCOMPLETE` sentinel when more
        bytes are needed (``None`` is a legal decoded value — the null
        bulk string).  Raises :class:`ProtocolError` on malformed input.
        """
        result = self._parse(self._pos)
        if result is None:
            return INCOMPLETE
        value, self._pos = result
        return value

    # -- internals -------------------------------------------------------
    def _parse(self, pos: int) -> Optional[Tuple[RespValue, int]]:
        buf = self._buf
        end = buf.find(b"\r\n", pos + 1)
        if end < 0:
            if len(buf) - pos > MAX_LINE:
                raise ProtocolError(f"line longer than {MAX_LINE} bytes without CRLF")
            return None
        marker = buf[pos]
        header = buf[pos + 1 : end]
        after = end + 2

        if marker == _BULK:
            length = _int(header, "bulk length")
            if length == -1:
                return None, after  # the null bulk string
            if length < 0 or length > self._max_bulk:
                raise ProtocolError(f"bulk length out of range: {length}")
            stop = after + length
            if len(buf) < stop + 2:
                return None
            if buf[stop : stop + 2] != b"\r\n":
                raise ProtocolError("bulk string missing CRLF terminator")
            return bytes(buf[after:stop]), stop + 2
        if marker == _ARRAY:
            count = _int(header, "array length")
            if count == -1:
                return None, after
            if count < 0:
                raise ProtocolError(f"array length out of range: {count}")
            items: List[RespValue] = []
            cursor = after
            for _ in range(count):
                sub = self._parse(cursor)
                if sub is None:
                    return None
                value, cursor = sub
                items.append(value)
            return items, cursor
        if marker == _SIMPLE:
            return header.decode(), after
        if marker == _ERROR:
            return ProtocolErrorValue(header.decode()), after
        if marker == _INTEGER:
            return _int(header, "integer"), after
        raise ProtocolError(f"unknown RESP type marker: {buf[pos : pos + 1]!r}")


def _int(header: bytearray, what: str) -> int:
    try:
        return int(header)
    except ValueError:
        raise ProtocolError(f"bad {what}: {bytes(header)!r}") from None


class ProtocolErrorValue(str):
    """An ``-ERR ...`` reply decoded from the wire (kept as a str
    subclass so callers can distinguish it from data)."""
