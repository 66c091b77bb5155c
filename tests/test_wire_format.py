"""Wire-format pins, codec properties and the decode memo.

The golden hex strings below are the exact bytes every message type
encodes to; any codec change that moves a byte fails here first.
Malformed frames must raise :class:`PackagingError` and nothing else,
and :func:`decode` memoises only frames that decoded.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import messages
from repro.core.context import (
    Ecc,
    EccEntry,
    LinkKind,
    Pic,
    Plc,
    PlcLink,
    PortInit,
)
from repro.core.external import decode_external, encode_external
from repro.core.messages import (
    DECODE_MEMO_SIZE,
    AckMessage,
    AckStatus,
    DataMessage,
    DiagMessage,
    InstallMessage,
    LifecycleMessage,
    MessageType,
    PluginHealth,
    UninstallMessage,
    decode,
)
from repro.core.virtual_ports import decode_relay, encode_relay
from repro.core.wire import Reader, Writer
from repro.errors import PackagingError
from tests.test_core_context import eccs, names, pics, plcs

GOLDEN = {
    "install": (
        InstallMessage(
            "OP", "1.2", "ECU2", "swc2",
            Pic((
                PortInit("cmd", 0), PortInit("spd", 1),
                PortInit("out", 2), PortInit("näme", 3),
            )),
            Plc((
                PlcLink(0, LinkKind.UNCONNECTED),
                PlcLink(1, LinkKind.PLUGIN_PORT, target_port_id=7),
                PlcLink(2, LinkKind.VIRTUAL, "V5"),
                PlcLink(3, LinkKind.VIRTUAL_REMOTE, "V0", 258),
            )),
            Ecc((EccEntry("111.22.33.44:56789", "ECU1", "Wheels", 0),)),
            b"\x00\x01\xfe\xff",
        ),
        "000102004f500300312e3204004543553204007377633204000300636d64000003"
        "00737064010003006f7574020005006ec3a46d6503000400000000000000000100"
        "01000007000200020200563500000300030200563002010100120031313"
        "12e32322e33332e34343a35363738390400454355310600576865656c730000040000"
        "000001feff",
    ),
    "ack": (
        AckMessage(
            "OP", "swc2", MessageType.INSTALL, AckStatus.OUT_OF_MEMORY, "boom"
        ),
        "010102004f5004007377633200020400626f6f6d",
    ),
    "uninstall": (
        UninstallMessage("OP", "ECU2", "swc2"),
        "020102004f50040045435532040073776332",
    ),
    "start": (
        LifecycleMessage(MessageType.START, "OP", "ECU2", "swc2"),
        "040102004f50040045435532040073776332",
    ),
    "stop": (
        LifecycleMessage(MessageType.STOP, "OP", "ECU2", "swc2"),
        "050102004f50040045435532040073776332",
    ),
    "data": (
        DataMessage("ECU2", "swc2", 513, -1234),
        "030104004543553204007377633201022efbffff",
    ),
    "diag": (
        DiagMessage(
            "ECU1", "ecm", 70000, 3,
            (
                PluginHealth("COM", "running", 12, 0, 4096),
                PluginHealth("OP", "stopped", 0, 2, 0xFFFFFFFF),
            ),
        ),
        "0601040045435531030065636d701101000300000002000300434f4d070072756e"
        "6e696e670c000000000000000010000002004f50070073746f7070656400000000"
        "02000000ffffffff",
    ),
}


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_message_bytes_pinned(self, name):
        message, golden = GOLDEN[name]
        assert message.encode().hex() == golden
        assert decode(bytes.fromhex(golden)) == message

    def test_virtual_port_relay_bytes_pinned(self):
        assert encode_relay(7, -5).hex() == "0700fbffffff"
        assert decode_relay(bytes.fromhex("0700fbffffff")) == (7, -5)

    def test_external_bytes_pinned(self):
        raw = encode_external("Wheels", -30)
        assert raw.hex() == "0600576865656c73e2ffffff"
        assert decode_external(raw) == ("Wheels", -30)


class TestWriterRanges:
    @pytest.mark.parametrize(
        "put, low, high",
        [
            ("u8", 0, 0xFF),
            ("u16", 0, 0xFFFF),
            ("u32", 0, 0xFFFFFFFF),
            ("i32", -(1 << 31), (1 << 31) - 1),
        ],
    )
    def test_bounds_accepted_and_overflow_rejected(self, put, low, high):
        raw = getattr(getattr(Writer(), put)(low), put)(high).getvalue()
        reader = Reader(raw)
        assert getattr(reader, put)() == low
        assert getattr(reader, put)() == high
        reader.expect_end()
        for bad in (low - 1, high + 1):
            with pytest.raises(PackagingError):
                getattr(Writer(), put)(bad)

    def test_string_length_limit(self):
        Writer().string("x" * 0xFFFF)
        with pytest.raises(PackagingError):
            Writer().string("x" * 0x10000)
        # The limit counts encoded bytes, not characters.
        with pytest.raises(PackagingError):
            Writer().string("ä" * 0x8000)


# -- properties ---------------------------------------------------------------

texts = st.text(max_size=16)
u32s = st.integers(0, 0xFFFFFFFF)

install_messages = st.builds(
    InstallMessage, texts, texts, texts, texts, pics(), plcs(), eccs(),
    st.binary(max_size=64),
)
ack_messages = st.builds(
    AckMessage, texts, texts, st.sampled_from(list(MessageType)),
    st.sampled_from(list(AckStatus)), texts,
)
uninstall_messages = st.builds(UninstallMessage, texts, texts, texts)
lifecycle_messages = st.builds(
    LifecycleMessage, st.sampled_from([MessageType.START, MessageType.STOP]),
    texts, texts, texts,
)
data_messages = st.builds(
    DataMessage, texts, texts, st.integers(0, 0xFFFF),
    st.integers(-(1 << 31), (1 << 31) - 1),
)
diag_messages = st.builds(
    DiagMessage, texts, texts, u32s, u32s,
    st.lists(
        st.builds(PluginHealth, names, texts, u32s, u32s, u32s), max_size=4
    ).map(tuple),
)
any_message = st.one_of(
    install_messages, ack_messages, uninstall_messages,
    lifecycle_messages, data_messages, diag_messages,
)


class TestCodecProperties:
    @given(any_message)
    @settings(max_examples=300, deadline=None)
    def test_roundtrip(self, message):
        assert decode(message.encode()) == message

    @given(
        st.sampled_from(sorted(GOLDEN)),
        st.lists(
            st.tuples(st.integers(0, 10_000), st.integers(0, 255)),
            min_size=1, max_size=3,
        ),
        st.integers(0, 10_000),
    )
    @settings(max_examples=1_500, deadline=None)
    def test_mutants_raise_only_packaging_error(self, name, edits, cut):
        """Byte substitutions and truncations of every message type."""
        raw = bytearray(bytes.fromhex(GOLDEN[name][1]))
        for index, value in edits:
            raw[index % len(raw)] = value
        for frame in (bytes(raw), bytes(raw[: cut % len(raw)])):
            try:
                decode(frame)
            except PackagingError:
                pass

    def test_each_leaking_error_kind_is_mapped(self):
        """Invalid UTF-8, unknown enum codes and context validation."""
        ack = bytearray(AckMessage(
            "OP", "swc2", MessageType.INSTALL, AckStatus.OK
        ).encode())
        bad_utf8 = bytearray(ack)
        bad_utf8[4] = 0xFF                      # inside "OP"
        bad_op = bytearray(ack)
        bad_op[12] = 0xEE                       # the acked op code
        bad_status = bytearray(ack)
        bad_status[13] = 0xEE                   # the status code
        install, __ = GOLDEN["install"]
        raw = bytearray(install.encode())
        name_at = raw.index(b"spd")
        dup_name = bytearray(raw)
        dup_name[name_at:name_at + 3] = b"cmd"  # duplicate PIC port name
        kind_at = raw.index(bytes.fromhex("01000100000700"))
        bad_kind = bytearray(raw)
        bad_kind[kind_at + 2] = 9               # PLC link kind
        for frame in (bad_utf8, bad_op, bad_status, dup_name, bad_kind):
            with pytest.raises(PackagingError):
                decode(bytes(frame))


class TestDecodeMemo:
    def setup_method(self):
        messages._decode_frame.cache_clear()

    def test_hit_equals_fresh_decode(self):
        message, golden = GOLDEN["install"]
        raw = bytes.fromhex(golden)
        first = decode(raw)
        assert decode(raw) is first
        assert messages._decode_frame.cache_info().hits == 1
        messages._decode_frame.cache_clear()
        assert decode(raw) == first == message

    def test_bounded(self):
        for value in range(DECODE_MEMO_SIZE + 50):
            decode(DataMessage("ECU2", "swc2", 1, value).encode())
        assert messages._decode_frame.cache_info().currsize == DECODE_MEMO_SIZE

    def test_buffer_inputs_decode(self):
        message, golden = GOLDEN["diag"]
        raw = bytes.fromhex(golden)
        assert decode(bytearray(raw)) == message
        assert decode(memoryview(raw)) == message

    def test_failures_are_not_cached(self):
        raw = bytes.fromhex(GOLDEN["ack"][1])[:-1]
        for __ in range(3):
            with pytest.raises(PackagingError):
                decode(raw)
        info = messages._decode_frame.cache_info()
        assert (info.currsize, info.misses) == (0, 3)
