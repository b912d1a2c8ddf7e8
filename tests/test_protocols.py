"""Tests for the RESP and binary wire codecs."""

import pytest

from repro.errors import ProtocolError
from repro.net import resp
from repro.net.protocol import BinaryCodec, INCOMPLETE as FRAME_INCOMPLETE


# ---------------------------------------------------------------------------
# RESP encoding
# ---------------------------------------------------------------------------
def test_encode_bulk_and_null():
    assert resp.encode_bulk("hi") == b"$2\r\nhi\r\n"
    assert resp.encode_bulk(None) == b"$-1\r\n"
    assert resp.encode_bulk(b"\x00\x01") == b"$2\r\n\x00\x01\r\n"


def test_encode_command():
    assert resp.encode_command("GET", "k") == b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"


def test_encode_simple_rejects_newlines():
    with pytest.raises(ProtocolError):
        resp.encode_simple("a\nb")


# ---------------------------------------------------------------------------
# RESP parsing
# ---------------------------------------------------------------------------
def roundtrip(data):
    p = resp.RespParser()
    p.feed(data)
    return p.next_value()


def test_parse_simple_string():
    assert roundtrip(b"+OK\r\n") == "OK"


def test_parse_integer():
    assert roundtrip(b":42\r\n") == 42
    with pytest.raises(ProtocolError):
        roundtrip(b":abc\r\n")


def test_parse_error_value():
    value = roundtrip(b"-ERR nope\r\n")
    assert isinstance(value, resp.ProtocolErrorValue)
    assert str(value) == "ERR nope"


def test_parse_bulk_and_null_bulk():
    assert roundtrip(b"$3\r\nfoo\r\n") == b"foo"
    assert roundtrip(b"$-1\r\n") is None
    assert roundtrip(b"$0\r\n\r\n") == b""


def test_parse_array_nested():
    data = b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n:7\r\n"
    assert roundtrip(data) == [b"SET", b"k", 7]


def test_parse_null_inside_array():
    assert roundtrip(b"*2\r\n$-1\r\n$1\r\nx\r\n") == [None, b"x"]


def test_incremental_feed_byte_by_byte():
    p = resp.RespParser()
    data = resp.encode_command("SET", "key1", "value1")
    for i in range(len(data) - 1):
        p.feed(data[i : i + 1])
        assert p.next_value() is resp.INCOMPLETE
    p.feed(data[-1:])
    assert p.next_value() == [b"SET", b"key1", b"value1"]


def test_pipelined_values():
    p = resp.RespParser()
    p.feed(b"+OK\r\n:1\r\n$1\r\nx\r\n")
    assert p.next_value() == "OK"
    assert p.next_value() == 1
    assert p.next_value() == b"x"
    assert p.next_value() is resp.INCOMPLETE


def test_bulk_missing_terminator():
    p = resp.RespParser()
    p.feed(b"$3\r\nfooXY")
    with pytest.raises(ProtocolError):
        p.next_value()


def test_bulk_too_large_rejected():
    p = resp.RespParser(max_bulk=10)
    p.feed(b"$100\r\n")
    with pytest.raises(ProtocolError):
        p.next_value()


def test_unterminated_line_rejected_not_buffered():
    p = resp.RespParser()
    chunk = b"+" + b"x" * (16 * 1024 - 1)
    for _ in range(4):
        p.feed(chunk)
        assert p.next_value() is resp.INCOMPLETE  # within the line bound
    p.feed(chunk)
    with pytest.raises(ProtocolError):
        p.next_value()


def test_one_mib_bulk_roundtrips_in_pieces():
    p = resp.RespParser()
    big = b"v" * (1 << 20)
    data = resp.encode_command("SET", "k", big)
    for i in range(0, len(data), 64 * 1024):
        assert p.next_value() is resp.INCOMPLETE
        p.feed(data[i : i + 64 * 1024])
    assert p.next_value() == [b"SET", b"k", big]


def test_unknown_marker():
    with pytest.raises(ProtocolError):
        roundtrip(b"?what\r\n")


def test_incomplete_is_falsy_and_distinct_from_none():
    p = resp.RespParser()
    assert not resp.INCOMPLETE
    assert p.next_value() is resp.INCOMPLETE
    p.feed(b"$-1\r\n")
    assert p.next_value() is None


# ---------------------------------------------------------------------------
# binary codec
# ---------------------------------------------------------------------------
def test_binary_roundtrip():
    codec = BinaryCodec()
    frame = {"op": "put", "key": "k", "val": "v" * 100}
    codec.feed(BinaryCodec.encode(frame))
    assert codec.next_frame() == frame


def test_binary_incremental():
    codec = BinaryCodec()
    data = BinaryCodec.encode({"op": "get", "key": "k"})
    codec.feed(data[:3])
    assert codec.next_frame() is FRAME_INCOMPLETE
    codec.feed(data[3:])
    assert codec.next_frame() == {"op": "get", "key": "k"}


def test_binary_pipelined():
    codec = BinaryCodec()
    codec.feed(BinaryCodec.encode({"a": 1}) + BinaryCodec.encode({"b": 2}))
    assert codec.next_frame() == {"a": 1}
    assert codec.next_frame() == {"b": 2}
    assert codec.next_frame() is FRAME_INCOMPLETE


def test_binary_bad_body():
    codec = BinaryCodec()
    body = b"not json"
    import struct

    codec.feed(struct.pack(">I", len(body)) + body)
    with pytest.raises(ProtocolError):
        codec.next_frame()


def test_binary_non_object_rejected():
    codec = BinaryCodec()
    body = b"[1,2]"
    import struct

    codec.feed(struct.pack(">I", len(body)) + body)
    with pytest.raises(ProtocolError):
        codec.next_frame()


def test_binary_oversize_frame_rejected():
    codec = BinaryCodec()
    import struct

    codec.feed(struct.pack(">I", 1 << 30))
    with pytest.raises(ProtocolError):
        codec.next_frame()
