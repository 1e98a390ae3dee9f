import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicrypt.metrics import ALPHABET, MAX_BITS, histogram, shannon_entropy


def test_histogram_counts():
    hist = histogram(bytes([0, 0, 1, 255]))
    assert hist.total == 4
    assert hist.bins[0] == 2
    assert hist.bins[1] == 1
    assert hist.bins[255] == 1
    assert hist.bins.sum() == 4
    assert len(hist.bins) == ALPHABET


def test_histogram_accepts_arrays_and_2d():
    hist = histogram(np.array([[1, 2], [2, 3]], dtype=np.uint8))
    assert hist.bins[2] == 2
    assert hist.total == 4


def test_histogram_bins_equal_bincount_on_every_input(each_backend):
    grid = np.arange(7 * 11, dtype=np.uint8).reshape(7, 11) * 3
    inputs = {
        "bytes": grid.tobytes(),
        "bytearray": bytearray(grid.tobytes()),
        "2-d": grid,
        "transposed": grid.T,
        "strided": grid[::2, ::3],
        "reversed": grid.ravel()[::-1],
        "0-d": np.uint8(200),
    }
    for backend in each_backend():
        for name, data in inputs.items():
            flat = np.asarray(memoryview(data) if name.startswith("byte") else data).ravel()
            hist = histogram(data)
            assert np.array_equal(hist.bins, np.bincount(flat, minlength=ALPHABET)), (backend, name)
            assert hist.bins.dtype == np.int64 and hist.total == flat.size, (backend, name)


def test_histogram_rejects_empty():
    with pytest.raises(ValueError):
        histogram(b"")


def test_histogram_csv_round_trip():
    hist = histogram(bytes(range(256)))
    text = hist.to_csv().decode("ascii")
    lines = text.splitlines()
    assert lines[0] == "value,count"
    assert len(lines) == 257
    assert lines[1] == "0,1"
    assert lines[-1] == "255,1"


def test_entropy_uniform_is_max():
    report = shannon_entropy(histogram(bytes(range(256)) * 4))
    assert math.isclose(report.h_bits, MAX_BITS, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(report.h_norm, 1.0, rel_tol=0, abs_tol=1e-12)


def test_entropy_constant_is_zero():
    report = shannon_entropy(histogram(b"\x42" * 100))
    assert report.h_bits == 0.0
    assert report.h_norm == 0.0


def test_entropy_two_equal_symbols_is_one_bit():
    report = shannon_entropy(histogram(b"\x00\x01" * 50))
    assert math.isclose(report.h_bits, 1.0, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(report.h_norm, 1.0 / 8.0, rel_tol=0, abs_tol=1e-12)


def test_entropy_skewed_pair():
    # p = (3/4, 1/4): H = 2 - 0.75*log2(3)
    data = b"\x00" * 3 + b"\x01"
    expected = 2.0 - 0.75 * math.log2(3.0)
    report = shannon_entropy(histogram(data))
    assert math.isclose(report.h_bits, expected, rel_tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=1, max_size=4096))
def test_entropy_bounds_and_normalization(data):
    report = shannon_entropy(histogram(data))
    assert 0.0 <= report.h_bits <= MAX_BITS
    assert report.h_norm == report.h_bits / MAX_BITS


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=1, max_size=1024), st.permutations(list(range(256))))
def test_entropy_invariant_under_relabeling(data, perm):
    # entropy depends only on the count multiset, not which byte owns it
    table = bytes(perm)
    relabeled = data.translate(table)
    a = shannon_entropy(histogram(data))
    b = shannon_entropy(histogram(relabeled))
    assert math.isclose(a.h_bits, b.h_bits, rel_tol=0, abs_tol=1e-12)
