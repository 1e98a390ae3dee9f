"""The compiled and pure kernels must be interchangeable bit-for-bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicrypt import _backend, _purepy

core = pytest.importorskip("cubicrypt._core", reason="compiled extension not built")

N_SMOKE = 500


def test_backend_selection():
    assert _backend.BACKEND in ("python", "c")
    assert "python" in _backend.available_backends()


def test_backend_module_tags():
    assert _purepy.BACKEND == "python"
    assert core.BACKEND == "c"


@settings(max_examples=80, deadline=None)
@given(
    x0=st.floats(min_value=-1.0, max_value=1.0),
    r=st.sampled_from([2.0, 3.2, 3.6, 3.61, 3.9]),
    scheme=st.integers(min_value=1, max_value=4),
    damping=st.sampled_from([1.0, 0.89, 0.5]),
)
def test_run_orbit_parity(x0, r, scheme, damping):
    a, esc_a = _purepy.run_orbit(x0, r, scheme, damping, N_SMOKE)
    b, esc_b = core.run_orbit(x0, r, scheme, damping, N_SMOKE)
    assert esc_a == esc_b
    assert np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def test_run_orbit_parity_long():
    a, esc_a = _purepy.run_orbit(0.1, 3.6, 1, 1.0, 70_000)
    b, esc_b = core.run_orbit(0.1, 3.6, 1, 1.0, 70_000)
    assert (esc_a, esc_b) == (-1, -1)
    assert np.array_equal(np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64))


def test_escape_index_parity():
    a, esc_a = _purepy.run_orbit(0.9, 8.0, 1, 1.0, 100)
    b, esc_b = core.run_orbit(0.9, 8.0, 1, 1.0, 100)
    assert esc_a == esc_b != -1
    # samples beyond the escape index are unspecified; compare the prefix
    k = esc_a + 1
    assert np.array_equal(
        np.asarray(a)[:k].view(np.uint64), np.asarray(b)[:k].view(np.uint64)
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=300))
def test_normalize_parity(values):
    block = np.asarray(values, dtype=np.float64)
    out_a = np.empty(len(block), dtype=np.uint8)
    out_b = np.empty(len(block), dtype=np.uint8)
    assert _purepy.normalize_block(block, out_a) == core.normalize_block(block, out_b)
    assert np.array_equal(out_a, out_b)


def test_normalize_rejects_out_of_range_at_same_index():
    block = np.array([0.5, -0.25, 1.25, 0.0])
    out_a = np.empty(4, dtype=np.uint8)
    out_b = np.empty(4, dtype=np.uint8)
    assert _purepy.normalize_block(block, out_a) == 2
    assert core.normalize_block(block, out_b) == 2
    assert np.array_equal(out_a[:2], out_b[:2])


def test_normalize_rejects_nan():
    block = np.array([0.5, float("nan")])
    out = np.empty(2, dtype=np.uint8)
    assert _purepy.normalize_block(block, out.copy()) == 1
    assert core.normalize_block(block, out) == 1


def test_normalize_accepts_read_only_input():
    block = np.linspace(-1, 1, 64)
    block.flags.writeable = False
    out_a = np.empty(64, dtype=np.uint8)
    out_b = np.empty(64, dtype=np.uint8)
    assert _purepy.normalize_block(block, out_a) == -1
    assert core.normalize_block(block, out_b) == -1
    assert np.array_equal(out_a, out_b)


@settings(max_examples=80, deadline=None)
@given(
    x0s=st.lists(st.floats(min_value=-1.2, max_value=1.2), min_size=0, max_size=19),
    r=st.sampled_from([2.0, 3.6, 3.61, 4.0001, 4.2]),
    scheme=st.integers(min_value=1, max_value=4),
    damping=st.sampled_from([1.0, 0.89]),
    block=st.integers(min_value=0, max_value=300),
)
def test_keystream_parity(x0s, r, scheme, damping, block):
    # more lanes than one group of the C kernel, so groups and tails both run
    seeds = np.asarray(x0s, dtype=np.float64)
    out_a = np.zeros(len(seeds) * block, dtype=np.uint8)
    out_b = np.zeros(len(seeds) * block, dtype=np.uint8)
    fault_a = _purepy.keystream(seeds, r, scheme, damping, block, out_a)
    fault_b = core.keystream(seeds, r, scheme, damping, block, out_b)
    assert repr(fault_a) == repr(fault_b)
    clean = len(seeds) if fault_a is None else fault_a[0]
    assert np.array_equal(out_a[: clean * block], out_b[: clean * block])


def test_keystream_matches_orbit_then_normalize():
    seeds = np.array([i / 71 for i in range(1, 71)])
    out = np.empty(70 * 1024, dtype=np.uint8)
    assert core.keystream(seeds, 3.61, 2, 0.89, 1024, out) is None
    for lane, x0 in enumerate(seeds):
        samples, escape = core.run_orbit(x0, 3.61, 2, 0.89, 1024)
        block = np.empty(1024, dtype=np.uint8)
        assert escape == -1 and core.normalize_block(samples[1:], block) == -1
        assert np.array_equal(out[lane * 1024 : (lane + 1) * 1024], block)


def test_pure_override_env(tmp_path):
    # a fresh interpreter with CUBICRYPT_PURE=1 must pick the python kernels
    import os
    import subprocess
    import sys

    code = "import cubicrypt; print(cubicrypt.KERNEL_BACKEND)"
    env_out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, CUBICRYPT_PURE="1"),
        check=True,
    )
    assert env_out.stdout.strip() == "python"
