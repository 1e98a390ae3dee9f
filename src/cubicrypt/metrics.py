"""Shannon entropy and byte histograms for keys and images."""

import math
from dataclasses import dataclass, field

import numpy as np

from cubicrypt import _backend

ALPHABET = 256
MAX_BITS = math.log2(ALPHABET)  # 8.0


@dataclass(frozen=True)
class Histogram:
    """Counts of each byte value 0..255."""

    bins: np.ndarray = field(repr=False)
    total: int = 0

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.int64)
        bins.flags.writeable = False
        object.__setattr__(self, "bins", bins)

    def to_csv(self) -> bytes:
        lines = ["value,count"]
        lines.extend(f"{value},{int(count)}" for value, count in enumerate(self.bins))
        return ("\n".join(lines) + "\n").encode("ascii")


@dataclass(frozen=True)
class EntropyReport:
    h_bits: float
    h_norm: float


def _as_bytes_array(data) -> np.ndarray:
    """``data`` as a 1-D C-contiguous uint8 array (``ravel`` copies a
    non-contiguous view)."""
    if isinstance(data, (bytes, bytearray)):
        return np.frombuffer(bytes(data), dtype=np.uint8)
    arr = np.asarray(data)
    if arr.dtype != np.uint8:
        raise ValueError(f"expected byte data, got dtype {arr.dtype}")
    return arr.ravel()


def histogram(data) -> Histogram:
    """256-bin histogram of a byte sequence (bytes or uint8 array)."""
    arr = _as_bytes_array(data)
    if arr.size == 0:
        raise ValueError("cannot build a histogram of empty data")
    bins = _backend.byte_counts(arr)
    return Histogram(bins=bins, total=int(arr.size))


def shannon_entropy(hist: Histogram) -> EntropyReport:
    """Entropy in bits over the byte alphabet, plus its [0, 1] normalization.

    H = -sum p_i log2 p_i over nonzero bins (empty bins contribute 0);
    h_norm = H / 8, reaching 1 only when all 256 values are equally
    frequent.
    """
    if hist.total <= 0:
        raise ValueError("histogram has no samples")
    p = hist.bins[hist.bins > 0] / hist.total
    h_bits = float(-(p * np.log2(p)).sum())
    h_bits = min(max(h_bits, 0.0), MAX_BITS)
    return EntropyReport(h_bits=h_bits, h_norm=h_bits / MAX_BITS)
