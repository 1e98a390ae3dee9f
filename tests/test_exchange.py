import itertools
import pickle
import queue
import socket
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cubicrypt import keygen
from cubicrypt.cipher import GrayImage
from cubicrypt.exchange import (
    HEADER_SIZE,
    MAGIC,
    MAX_PAYLOAD,
    PROFILES,
    ProtocolError,
    _parse_header,
    decode_frame,
    encode_frame,
    recv_frame,
    run_exchange,
    send_image,
    serve_once,
)
from cubicrypt.keygen import build_key_matrix, generate_keystream
from cubicrypt.maps import EvaluationScheme
from cubicrypt.metrics import Histogram, shannon_entropy
from cubicrypt.testimage import synthetic_test_image


# ---------------------------------------------------------------- profiles


def test_profiles_cover_all_schemes():
    assert set(PROFILES) == {
        "device1", "device2", "device3", "device4",
        "device1-damped", "device2-damped", "device3-damped", "device4-damped",
    }
    for i, scheme in enumerate(EvaluationScheme, start=1):
        plain = PROFILES[f"device{i}"]
        damped = PROFILES[f"device{i}-damped"]
        assert plain.keystream.scheme is scheme
        assert plain.keystream.mode == "single"
        assert damped.keystream.scheme is scheme
        assert damped.keystream.mode == "multiseed"
        assert damped.keystream.damping == 0.89
        assert damped.keystream.r == 3.61


def test_profile_key_matrix_shape():
    key = PROFILES["device1"].key_matrix(16, 9)
    assert key.cells.shape == (9, 16)


# ---------------------------------------------------------------- framing


def test_frame_layout():
    img = GrayImage(pixels=np.array([[1, 2], [3, 4]], dtype=np.uint8))
    frame = encode_frame(img)
    assert frame[:4] == MAGIC
    assert frame[4] == 0x01
    assert frame[5:9] == (2).to_bytes(4, "big")
    assert frame[9:13] == (2).to_bytes(4, "big")
    assert frame[13:17] == (4).to_bytes(4, "big")
    assert frame[17:] == bytes([1, 2, 3, 4])
    assert len(frame) == HEADER_SIZE + 4


@settings(max_examples=40, deadline=None)
@given(arrays(np.uint8, (6, 11), elements=st.integers(0, 255)))
def test_frame_round_trip(px):
    img = GrayImage(pixels=px)
    back = decode_frame(encode_frame(img))
    assert np.array_equal(back.pixels, img.pixels)
    assert (back.width, back.height) == (11, 6)


def test_decode_rejects_bad_magic():
    img = GrayImage(pixels=np.zeros((1, 1), dtype=np.uint8))
    frame = bytearray(encode_frame(img))
    frame[:4] = b"NOPE"
    with pytest.raises(ProtocolError, match="magic") as err:
        decode_frame(bytes(frame))
    assert err.value.kind == "magic"


def test_decode_rejects_unknown_type():
    img = GrayImage(pixels=np.zeros((1, 1), dtype=np.uint8))
    frame = bytearray(encode_frame(img))
    frame[4] = 0x7F
    with pytest.raises(ProtocolError, match="message type") as err:
        decode_frame(bytes(frame))
    assert err.value.kind == "type"


def test_decode_rejects_short_frames():
    with pytest.raises(ProtocolError, match="incomplete") as err:
        decode_frame(b"CBX1")
    assert err.value.kind == "truncated"
    img = GrayImage(pixels=np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ProtocolError, match="incomplete") as err:
        decode_frame(encode_frame(img)[:-1])
    assert err.value.kind == "truncated"


def test_decode_rejects_length_mismatch():
    img = GrayImage(pixels=np.zeros((2, 2), dtype=np.uint8))
    frame = bytearray(encode_frame(img))
    frame[13:17] = (3).to_bytes(4, "big")
    with pytest.raises(ProtocolError, match="length mismatch") as err:
        decode_frame(bytes(frame))
    assert err.value.kind == "length"


def test_decode_rejects_trailing_bytes():
    img = GrayImage(pixels=np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ProtocolError, match="trailing") as err:
        decode_frame(encode_frame(img) + b"\x00")
    assert err.value.kind == "trailing"


def test_decode_rejects_zero_dimensions():
    frame = MAGIC + bytes([1]) + (0).to_bytes(4, "big") * 2 + (0).to_bytes(4, "big")
    with pytest.raises(ProtocolError, match="dimensions") as err:
        decode_frame(frame)
    assert err.value.kind == "dimensions"


@pytest.mark.parametrize(
    "msg_type, payload_len, message",
    [
        (0x01, 5000, "length mismatch"),
        (0x09, 4, "message type"),
        (0x01, 2**32 - 1, "length mismatch"),
    ],
)
def test_recv_frame_rejects_header_before_reading_payload(msg_type, payload_len, message):
    header = MAGIC + bytes([msg_type]) + (2).to_bytes(4, "big") * 2 + payload_len.to_bytes(4, "big")
    reader, writer = socket.socketpair()
    with reader, writer:
        reader.settimeout(5.0)
        writer.sendall(header + b"rest")
        with pytest.raises(ProtocolError, match=message) as err:
            recv_frame(reader)
        # not one byte past the header was consumed
        assert reader.recv(16) == b"rest"
    assert err.value.kind == {"length mismatch": "length", "message type": "type"}[message]


def _header(width, height, payload_len, magic=MAGIC, msg_type=0x01):
    return magic + bytes([msg_type]) + width.to_bytes(4, "big") + height.to_bytes(4, "big") + (
        payload_len.to_bytes(4, "big")
    )


def test_payload_cap_rejects_header_before_reading_payload():
    header = _header(8192, 8192, 8192 * 8192)
    message = f"payload of {8192 * 8192} bytes exceeds the {MAX_PAYLOAD}-byte limit"
    reader, writer = socket.socketpair()
    with reader, writer:
        reader.settimeout(5.0)
        writer.sendall(header + b"rest")
        with pytest.raises(ProtocolError) as received:
            recv_frame(reader)
        # not one byte past the header was consumed
        assert reader.recv(16) == b"rest"
    with pytest.raises(ProtocolError) as decoded:
        decode_frame(header + b"rest")
    assert str(received.value) == str(decoded.value) == message
    assert received.value.kind == decoded.value.kind == "too-large"


def test_payload_cap_keeps_earlier_messages_and_admits_the_limit():
    with pytest.raises(ProtocolError, match="length mismatch") as err:
        decode_frame(_header(8192, 8192, 5))
    assert err.value.kind == "length"
    with pytest.raises(ProtocolError, match="invalid dimensions") as err:
        decode_frame(_header(65537, 1, 65537))
    assert err.value.kind == "dimensions"
    # exactly MAX_PAYLOAD passes the header check and waits for its payload
    with pytest.raises(ProtocolError, match=f"incomplete frame: 0 of {MAX_PAYLOAD} payload") as err:
        decode_frame(_header(4096, 4096, MAX_PAYLOAD))
    assert err.value.kind == "truncated"


def test_protocol_error_pickles_with_its_kind():
    error = pickle.loads(pickle.dumps(ProtocolError("magic", "bad magic b'NOPE'")))
    assert (error.kind, str(error)) == ("magic", "bad magic b'NOPE'")


_small = st.integers(1, 3)
_any_dimension = st.integers(0, 4) | st.sampled_from([65536, 65537]) | st.integers(0, 2**32 - 1)
# Well-formed small-image headers, headers with each field possibly off,
# and streams that end inside the header.
_frame_header = st.one_of(
    st.builds(lambda w, h: _header(w, h, w * h), _small, _small),
    st.builds(
        lambda w, h, skew, magic, msg_type: _header(w, h, (w * h + skew) % 2**32, magic, msg_type),
        _any_dimension,
        _any_dimension,
        st.integers(-1, 1),
        st.sampled_from([MAGIC, b"CBX2"]),
        st.sampled_from([0x01, 0x02]),
    ),
    st.binary(max_size=HEADER_SIZE),
)


def _read_to_end(conn):
    chunks = []
    while chunk := conn.recv(4096):
        chunks.append(chunk)
    return b"".join(chunks)


@settings(max_examples=300, deadline=None)
@given(
    header=_frame_header,
    # at least 9 bytes holds any well-formed small payload whole
    rest=st.binary(max_size=12) | st.binary(min_size=9, max_size=48),
)
def test_recv_frame_agrees_with_decode_frame(header, rest):
    data = header + rest
    reader, writer = socket.socketpair()
    with reader, writer:
        reader.settimeout(5.0)  # a read past the end of the stream fails instead of hanging
        writer.sendall(data)
        writer.shutdown(socket.SHUT_WR)
        try:
            received = recv_frame(reader)
        except ProtocolError as exc:
            received = exc
        consumed = len(data) - len(_read_to_end(reader))
    if isinstance(received, ProtocolError):
        assert received.kind in ProtocolError.KINDS
    if len(data) < HEADER_SIZE:
        assert isinstance(received, ProtocolError)
        with pytest.raises(ProtocolError) as decoded:
            decode_frame(data)
        assert received.kind == decoded.value.kind == "truncated"
        return
    try:
        _, _, payload_len = _parse_header(data)
    except ProtocolError:
        # a rejected header: the same message and kind, and not one byte
        # past it read
        with pytest.raises(ProtocolError) as decoded:
            decode_frame(data)
        assert isinstance(received, ProtocolError)
        assert str(received) == str(decoded.value)
        assert received.kind == decoded.value.kind
        assert consumed == HEADER_SIZE
        return
    if len(rest) >= payload_len:
        frame = data[: HEADER_SIZE + payload_len]
        assert isinstance(received, GrayImage)
        assert np.array_equal(received.pixels, decode_frame(frame).pixels)
        assert consumed == len(frame)
        if len(rest) > payload_len:
            # recv_frame reads exactly one frame; decode_frame sees the rest
            with pytest.raises(ProtocolError) as decoded:
                decode_frame(data)
            assert decoded.value.kind == "trailing"
    else:
        # a short payload
        assert isinstance(received, ProtocolError)
        with pytest.raises(ProtocolError) as decoded:
            decode_frame(data)
        assert received.kind == decoded.value.kind == "truncated"


# ---------------------------------------------------------------- exchange


def _uncached_keys(sender, receiver, image):
    """Both profiles' key cells for the image, built without the cache."""
    w, h = image.width, image.height
    return tuple(
        build_key_matrix(generate_keystream(p.keystream, w * h), w, h).cells
        for p in (sender, receiver)
    )


def _mean_scores(sender, receiver, image):
    """np.mean forms of the two fractions, from keys built without the cache."""
    send, recv = _uncached_keys(sender, receiver, image)
    candidate = image.pixels ^ send ^ recv
    return float(np.mean(candidate == image.pixels)), float(np.mean(send != recv))


def test_exchange_scores_equal_mean_forms(each_backend):
    image = synthetic_test_image(64, 48)
    pairs = list(itertools.product(PROFILES.values(), repeat=2))
    for backend in each_backend():
        expected = {}
        for sender, receiver in pairs:
            keygen._clear_cache()
            expected[sender.name, receiver.name] = _mean_scores(sender, receiver, image)
        assert len(set(expected.values())) > 2, backend  # not only 0s and 1s
        for state in ("cold", "warm"):
            for sender, receiver in pairs:
                if state == "cold":
                    keygen._clear_cache()
                report = run_exchange(sender, receiver, image)
                scores = (report.match_fraction, report.key_mismatch_fraction)
                assert scores == expected[sender.name, receiver.name], (
                    backend, state, sender.name, receiver.name
                )


def test_exchange_entropy_equals_bincount_entropy(each_backend, test_image):
    pairs = list(itertools.product(PROFILES.values(), repeat=2))
    for backend in each_backend():
        for sender, receiver in pairs:
            send, recv = _uncached_keys(sender, receiver, test_image)
            candidate = (test_image.pixels ^ send ^ recv).ravel()
            bins = np.bincount(candidate, minlength=256)
            expected = shannon_entropy(Histogram(bins=bins, total=candidate.size))
            report = run_exchange(sender, receiver, test_image)
            assert report.candidate_entropy == expected, (backend, sender.name, receiver.name)


def test_same_profile_exchange_matches(test_image):
    report = run_exchange(PROFILES["device1"], PROFILES["device1"], test_image)
    assert report.matched
    assert report.match_fraction == 1.0
    assert report.key_mismatch_fraction == 0.0
    assert np.array_equal(report.candidate.pixels, test_image.pixels)


def test_e1_e4_exchange_matches(test_image):
    # same op order under two names
    report = run_exchange(PROFILES["device1"], PROFILES["device4"], test_image)
    assert report.matched


def test_cross_scheme_exchange_garbles(test_image):
    report = run_exchange(PROFILES["device1"], PROFILES["device2"], test_image)
    assert report.match_fraction <= 0.05
    assert report.candidate_entropy.h_norm >= 0.95
    assert not report.matched
    assert "device1 -> device2" in report.summary()


def test_damped_exchange_improves(test_image):
    undamped = run_exchange(PROFILES["device1"], PROFILES["device2"], test_image)
    damped = run_exchange(PROFILES["device1-damped"], PROFILES["device2-damped"], test_image)
    assert damped.match_fraction > undamped.match_fraction


def test_tcp_transport_equals_memory(test_image):
    mem = run_exchange(PROFILES["device1"], PROFILES["device2"], test_image, transport="memory")
    tcp = run_exchange(PROFILES["device1"], PROFILES["device2"], test_image, transport="tcp")
    assert np.array_equal(mem.candidate.pixels, tcp.candidate.pixels)
    assert mem.match_fraction == tcp.match_fraction


def test_unknown_transport(test_image):
    with pytest.raises(ValueError):
        run_exchange(PROFILES["device1"], PROFILES["device1"], test_image, transport="carrier-pigeon")


def test_serve_and_send_sockets(test_image):
    ready = threading.Event()
    port_box = {}

    def note_port(port):
        port_box["port"] = port
        ready.set()

    results = {}

    def server():
        candidate, _ = serve_once("127.0.0.1", 0, PROFILES["device1"], on_bound=note_port)
        results["candidate"] = candidate

    thread = threading.Thread(target=server, daemon=True)
    thread.start()
    assert ready.wait(timeout=5.0)
    send_image("127.0.0.1", port_box["port"], PROFILES["device1"], test_image)
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert np.array_equal(results["candidate"].pixels, test_image.pixels)


def _two_by_two() -> GrayImage:
    return GrayImage(pixels=np.arange(4, dtype=np.uint8).reshape(2, 2))


@pytest.mark.parametrize(
    "sent",
    [b"", MAGIC, encode_frame(_two_by_two())[:-1]],
    ids=["nothing", "part-header", "part-payload"],
)
def test_serve_once_times_out_on_silent_peer(monkeypatch, sent):
    monkeypatch.setattr("cubicrypt.exchange.SOCKET_TIMEOUT_S", 0.2)
    bound, outcome = queue.Queue(), queue.Queue()

    def server():
        try:
            outcome.put(serve_once("127.0.0.1", 0, PROFILES["device1"], on_bound=bound.put))
        except Exception as exc:
            outcome.put(exc)

    threading.Thread(target=server, daemon=True).start()
    with socket.create_connection(("127.0.0.1", bound.get(timeout=5.0))) as peer:
        peer.sendall(sent)
        result = outcome.get(timeout=5.0)
    assert isinstance(result, TimeoutError)


def test_send_image_connects_with_timeout(monkeypatch):
    monkeypatch.setattr("cubicrypt.exchange.SOCKET_TIMEOUT_S", 0.2)
    timeouts = []
    create_connection = socket.create_connection

    def recording(*args, **kwargs):
        conn = create_connection(*args, **kwargs)
        timeouts.append(conn.gettimeout())
        return conn

    monkeypatch.setattr(socket, "create_connection", recording)
    with socket.create_server(("127.0.0.1", 0)) as listener:
        send_image("127.0.0.1", listener.getsockname()[1], PROFILES["device1"], _two_by_two())
    assert timeouts == [0.2]
