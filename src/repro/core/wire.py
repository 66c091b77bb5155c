"""Low-level wire encoding helpers for the dynamic component model.

All management traffic (server <-> ECM, ECM <-> plug-in SW-Cs over type I
ports) is encoded as real byte strings with these primitives, so
payload sizes seen by the latency models are the sizes that would cross
a real network.

Integers are little-endian; strings are UTF-8 behind a u16 length and
blobs sit behind a u32 length.  Every malformed input — an out-of-range
value on the way out, a truncated frame, invalid UTF-8 or an unknown
enum code on the way in — raises :class:`PackagingError`.
"""

from __future__ import annotations

import enum
import struct
from typing import TypeVar

from repro.errors import PackagingError

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")

E = TypeVar("E", bound=enum.Enum)


class Writer:
    """Append-only byte buffer with typed put operations."""

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def _put(self, codec: struct.Struct, kind: str, value: int) -> "Writer":
        try:
            self._buf += codec.pack(value)
        except struct.error:
            raise PackagingError(f"{kind} out of range: {value}") from None
        return self

    def u8(self, value: int) -> "Writer":
        return self._put(_U8, "u8", value)

    def u16(self, value: int) -> "Writer":
        return self._put(_U16, "u16", value)

    def u32(self, value: int) -> "Writer":
        return self._put(_U32, "u32", value)

    def i32(self, value: int) -> "Writer":
        return self._put(_I32, "i32", value)

    def string(self, value: str) -> "Writer":
        encoded = value.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise PackagingError(f"string of {len(encoded)} bytes too long")
        self._buf += _U16.pack(len(encoded))
        self._buf += encoded
        return self

    def blob(self, value: bytes) -> "Writer":
        self.u32(len(value))
        self._buf += value
        return self

    def getvalue(self) -> bytes:
        return bytes(self._buf)


class Reader:
    """Sequential typed reader over a byte string."""

    __slots__ = ("_data", "_offset")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._offset = 0

    def _truncated(self, wanted: int) -> PackagingError:
        return PackagingError(
            f"truncated message: wanted {wanted} bytes at offset "
            f"{self._offset}, have {len(self._data)}"
        )

    def _scalar(self, codec: struct.Struct) -> int:
        try:
            (value,) = codec.unpack_from(self._data, self._offset)
        except struct.error:
            raise self._truncated(codec.size) from None
        self._offset += codec.size
        return value

    def _take(self, n: int) -> bytes:
        end = self._offset + n
        if end > len(self._data):
            raise self._truncated(n)
        out = bytes(self._data[self._offset : end])
        self._offset = end
        return out

    def u8(self) -> int:
        return self._scalar(_U8)

    def u16(self) -> int:
        return self._scalar(_U16)

    def u32(self) -> int:
        return self._scalar(_U32)

    def i32(self) -> int:
        return self._scalar(_I32)

    def code(self, kind: type[E]) -> E:
        """A u8 wire code of the enum ``kind``."""
        value = self.u8()
        try:
            return kind(value)
        except ValueError:
            raise PackagingError(
                f"{value} is not a valid {kind.__name__}"
            ) from None

    def string(self) -> str:
        raw = self._take(self.u16())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise PackagingError(f"string is not UTF-8: {exc.reason}") from None

    def blob(self) -> bytes:
        return self._take(self.u32())

    @property
    def exhausted(self) -> bool:
        return self._offset == len(self._data)

    def expect_end(self) -> None:
        """Raise unless every byte has been consumed."""
        if not self.exhausted:
            raise PackagingError(
                f"{len(self._data) - self._offset} trailing bytes in message"
            )


__all__ = ["Writer", "Reader"]
