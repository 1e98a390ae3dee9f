"""Two-device image exchange over a byte-level wire protocol.

The protocol never carries key material: both ends regenerate the key
matrix locally from a pre-agreed profile (map parameters + evaluation
scheme). A frame is a fixed 17-byte header followed by the encrypted
row-major pixel payload:

    offset  size  field
    0       4     magic  b"CBX1"
    4       1     msg_type (0x01 = encrypted image)
    5       4     width   (u32, big-endian)
    9       4     height  (u32, big-endian)
    13      4     payload length in bytes (u32, big-endian)

Decryption uses the receiver's own profile. When the two profiles
evaluate the map with different operation orderings the regenerated
keys drift apart and the candidate plaintext is garbage; the match
fraction quantifies that failure.
"""

import socket
import struct
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from cubicrypt.cipher import GrayImage, xor_apply
from cubicrypt.keygen import KeystreamConfig, KeyMatrix, key_matrix_for
from cubicrypt.maps import EvaluationScheme
from cubicrypt.metrics import EntropyReport, histogram, shannon_entropy

MAGIC = b"CBX1"
MSG_ENCRYPTED_IMAGE = 0x01
_HEADER = struct.Struct(">4sBIII")
HEADER_SIZE = _HEADER.size
MAX_DIMENSION = 65536
# Largest payload a receiver buffers (4096x4096). The largest PROFILES key
# is 71 680 bytes, but serve_once and run_exchange take any DeviceProfile,
# whose keystream may be far longer, so the cap bounds memory per frame
# rather than following the built-in profiles.
MAX_PAYLOAD = 1 << 24
# Seconds a connected peer may stay silent (or a connect may take) before
# serve_once / send_image give up with TimeoutError.
SOCKET_TIMEOUT_S = 30.0


class ProtocolError(ValueError):
    """Malformed or inconsistent wire frame.

    ``kind`` names the failure, one of ``KINDS``: a bad magic or message
    type, invalid dimensions, a payload length that does not match them,
    a payload over ``MAX_PAYLOAD``, a frame that ends early, or bytes
    after the frame. The message says the same in words.
    """

    KINDS = ("magic", "type", "dimensions", "length", "too-large", "truncated", "trailing")

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind

    def __reduce__(self):
        return type(self), (self.kind, str(self))


@dataclass(frozen=True)
class DeviceProfile:
    """A named, pre-agreed keystream recipe standing in for one device."""

    name: str
    keystream: KeystreamConfig

    def key_matrix(self, width: int, height: int) -> KeyMatrix:
        return key_matrix_for(self.keystream, width, height)


PROFILES: dict[str, DeviceProfile] = {}
for _scheme in EvaluationScheme:
    for _suffix, _recipe in (("", KeystreamConfig.single_orbit), ("-damped", KeystreamConfig.multi_seed)):
        _n = f"device{int(_scheme)}{_suffix}"
        PROFILES[_n] = DeviceProfile(name=_n, keystream=_recipe(scheme=_scheme))
del _scheme, _suffix, _recipe, _n


def encode_frame(image: GrayImage) -> bytes:
    payload = image.tobytes()
    return _HEADER.pack(MAGIC, MSG_ENCRYPTED_IMAGE, image.width, image.height, len(payload)) + payload


def _parse_header(header: bytes) -> tuple[int, int, int]:
    """Validate a frame header; returns (width, height, payload_len).

    Checks everything the header alone can tell, so a receiver rejects a
    bad frame before it buffers any payload.
    """
    magic, msg_type, width, height, payload_len = _HEADER.unpack_from(header)
    if magic != MAGIC:
        raise ProtocolError("magic", f"bad magic {magic!r}: expected {MAGIC!r}")
    if msg_type != MSG_ENCRYPTED_IMAGE:
        raise ProtocolError("type", f"unknown message type 0x{msg_type:02x}")
    if width == 0 or height == 0 or width > MAX_DIMENSION or height > MAX_DIMENSION:
        raise ProtocolError("dimensions", f"invalid dimensions {width}x{height}")
    if payload_len != width * height:
        raise ProtocolError(
            "length", f"length mismatch: payload {payload_len} bytes for {width}x{height} image"
        )
    if payload_len > MAX_PAYLOAD:
        raise ProtocolError(
            "too-large", f"payload of {payload_len} bytes exceeds the {MAX_PAYLOAD}-byte limit"
        )
    return width, height, payload_len


def decode_frame(frame: bytes) -> GrayImage:
    """Inverse of encode_frame; raises ProtocolError with a distinct
    message, and the kind of its failure mode.
    """
    if len(frame) < HEADER_SIZE:
        raise ProtocolError(
            "truncated", f"incomplete frame: {len(frame)} bytes, header needs {HEADER_SIZE}"
        )
    width, height, payload_len = _parse_header(frame)
    payload = frame[HEADER_SIZE : HEADER_SIZE + payload_len]
    if len(payload) < payload_len:
        raise ProtocolError(
            "truncated", f"incomplete frame: {len(payload)} of {payload_len} payload bytes"
        )
    if len(frame) > HEADER_SIZE + payload_len:
        extra = len(frame) - HEADER_SIZE - payload_len
        raise ProtocolError("trailing", f"{extra} trailing bytes after frame")
    return GrayImage.frombytes(payload, width, height)


def _recv_exact(conn: socket.socket, count: int) -> bytes:
    """Read exactly count bytes; short reads across TCP segmentation are
    the norm, a closed socket mid-frame is an error.
    """
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = conn.recv(min(remaining, 65536))
        if not chunk:
            raise ProtocolError(
                "truncated", f"connection closed with {remaining} bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(conn: socket.socket, image: GrayImage) -> None:
    conn.sendall(encode_frame(image))


def recv_frame(conn: socket.socket) -> GrayImage:
    width, height, payload_len = _parse_header(_recv_exact(conn, HEADER_SIZE))
    return GrayImage.frombytes(_recv_exact(conn, payload_len), width, height)


@dataclass(frozen=True)
class ExchangeReport:
    """Outcome of one sender->receiver image transfer."""

    sender: str
    receiver: str
    width: int
    height: int
    match_fraction: float
    key_mismatch_fraction: float
    candidate_entropy: EntropyReport
    candidate: GrayImage

    @property
    def matched(self) -> bool:
        return self.match_fraction == 1.0

    def summary(self) -> str:
        return (
            f"{self.sender} -> {self.receiver}: match={self.match_fraction:.6f} "
            f"key_mismatch={self.key_mismatch_fraction:.6f} "
            f"candidate_h_norm={self.candidate_entropy.h_norm:.6f}"
        )


def _loopback_transfer(image: GrayImage) -> GrayImage:
    """Send the image as one frame through a real localhost TCP socket
    pair and receive it on the other end.

    The writer runs on its own thread: frames routinely exceed the
    kernel socket buffers, so a single-threaded send-then-receive would
    deadlock.
    """
    with socket.create_server(("127.0.0.1", 0), backlog=1) as listener:
        with socket.create_connection(listener.getsockname()) as sender_conn:
            receiver_conn, _ = listener.accept()
            with receiver_conn:
                writer = threading.Thread(target=send_frame, args=(sender_conn, image), daemon=True)
                writer.start()
                received = recv_frame(receiver_conn)
                writer.join()
    return received


def run_exchange(
    sender: DeviceProfile,
    receiver: DeviceProfile,
    image: GrayImage,
    transport: str = "memory",
) -> ExchangeReport:
    """Encrypt with the sender's key, move the frame, decrypt with the
    receiver's independently regenerated key, and score the result.
    """
    if transport not in ("memory", "tcp"):
        raise ValueError(f"unknown transport {transport!r}")
    send_key = sender.key_matrix(image.width, image.height)
    encrypted = xor_apply(image, send_key)
    if transport == "tcp":
        received = _loopback_transfer(encrypted)
    else:
        received = decode_frame(encode_frame(encrypted))
    recv_key = receiver.key_matrix(received.width, received.height)
    candidate = xor_apply(received, recv_key)
    # exact counts over one correctly rounded division: the same floats as
    # np.mean, without its float64 pass
    match_fraction = np.count_nonzero(candidate.pixels == image.pixels) / image.pixels.size
    key_mismatch_fraction = np.count_nonzero(send_key.cells != recv_key.cells) / send_key.cells.size
    entropy = shannon_entropy(histogram(candidate.pixels))
    return ExchangeReport(
        sender=sender.name,
        receiver=receiver.name,
        width=image.width,
        height=image.height,
        match_fraction=match_fraction,
        key_mismatch_fraction=key_mismatch_fraction,
        candidate_entropy=entropy,
        candidate=candidate,
    )


def serve_once(
    host: str,
    port: int,
    profile: DeviceProfile,
    on_bound: Callable[[int], None] | None = None,
) -> tuple[GrayImage, int]:
    """Accept one connection, receive one frame, decrypt with the
    profile's key; returns (candidate image, bound port). ``on_bound``
    is called with the bound port before blocking in accept, so a
    caller serving on port 0 can learn where to connect. A peer that
    stays silent for SOCKET_TIMEOUT_S mid-frame raises TimeoutError.
    """
    with socket.create_server((host, port), backlog=1) as listener:
        bound = listener.getsockname()[1]
        if on_bound is not None:
            on_bound(bound)
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(SOCKET_TIMEOUT_S)
            encrypted = recv_frame(conn)
    key = profile.key_matrix(encrypted.width, encrypted.height)
    return xor_apply(encrypted, key), bound


def send_image(host: str, port: int, profile: DeviceProfile, image: GrayImage) -> None:
    """Encrypt with the profile's key and push one frame to host:port."""
    key = profile.key_matrix(image.width, image.height)
    encrypted = xor_apply(image, key)
    with socket.create_connection((host, port), timeout=SOCKET_TIMEOUT_S) as conn:
        send_frame(conn, encrypted)
