import hashlib
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicrypt import _backend, keygen
from cubicrypt.exchange import PROFILES
from cubicrypt.keygen import (
    KEY_BYTE_MAX,
    MITIGATION_DAMPING,
    MULTI_SEED_COUNT,
    MULTI_SEED_ITERATIONS,
    MULTI_SEED_R,
    SINGLE_ORBIT_ITERATIONS,
    KeyMatrix,
    KeystreamConfig,
    build_key_matrix,
    generate_keystream,
    key_matrix_for,
    normalize_sample,
)
from cubicrypt.maps import EvaluationScheme, MapConfig, OrbitDivergenceError, iterate_orbit


# ---------------------------------------------------------------- normalize


def test_normalize_known_values():
    # floor(255 * frac(1000 * (x/2 + 1)))
    assert normalize_sample(0.001) == 127  # frac(1000.5) = 0.5
    assert normalize_sample(0.0) == 0  # frac(1000.0) = 0
    assert normalize_sample(-1.0) == 0  # frac(500.0) = 0
    assert normalize_sample(1.0) == 0  # frac(1500.0) = 0
    # binary64: 1000*(1 - 0.2564/2) = 871.8000000000001, frac 0.80000...682
    assert normalize_sample(-0.2564) == 204
    assert normalize_sample(0.6059584642816002) == 249


def test_normalize_rejects_out_of_range():
    with pytest.raises(ValueError):
        normalize_sample(1.0000001)
    with pytest.raises(ValueError):
        normalize_sample(-2.0)
    with pytest.raises(ValueError):
        normalize_sample(float("nan"))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1.0, max_value=1.0))
def test_normalize_range_and_255_unreachable(x):
    byte = normalize_sample(x)
    assert 0 <= byte <= KEY_BYTE_MAX
    assert byte != 255  # frac < 1 implies floor(255*frac) <= 254


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-1.0, max_value=1.0))
def test_normalize_matches_direct_formula(x):
    y = x / 2.0 + 1.0
    z = y * 1000.0
    frac = z - np.floor(z)
    assert normalize_sample(x) == int(np.floor(255.0 * frac))


# ---------------------------------------------------------------- configs


def test_single_orbit_defaults():
    config = KeystreamConfig.single_orbit()
    assert config.mode == "single"
    assert config.x0 == 0.1
    assert config.r == 3.6
    assert config.damping is None
    assert config.iterations == SINGLE_ORBIT_ITERATIONS == 70_000
    assert config.available_samples == 70_000


def test_multi_seed_defaults():
    config = KeystreamConfig.multi_seed()
    assert config.mode == "multiseed"
    assert config.r == MULTI_SEED_R == 3.61
    assert config.damping == MITIGATION_DAMPING == 0.89
    assert config.seed_count == MULTI_SEED_COUNT == 70
    assert config.iterations_per_seed == MULTI_SEED_ITERATIONS == 1024
    assert config.available_samples == 70 * 1024


def test_multi_seed_seeds_partition_open_unit_interval():
    config = KeystreamConfig.multi_seed()
    seeds = config.seeds()
    assert len(seeds) == 70
    assert seeds[0] == 1 / 71
    assert seeds[-1] == 70 / 71
    assert all(0.0 < s < 1.0 for s in seeds)
    assert all(a < b for a, b in zip(seeds, seeds[1:]))


def test_config_validation():
    with pytest.raises(ValueError):
        KeystreamConfig(mode="single")  # missing x0/iterations
    with pytest.raises(ValueError):
        KeystreamConfig(mode="multiseed", seed_count=0, iterations_per_seed=10)
    with pytest.raises(ValueError):
        KeystreamConfig(mode="banana", x0=0.1, iterations=5)
    with pytest.raises(ValueError):
        KeystreamConfig.single_orbit().seeds()


# ---------------------------------------------------------------- keystreams


def test_single_orbit_stream_excludes_x0():
    config = KeystreamConfig.single_orbit(iterations=16)
    stream = generate_keystream(config, 16)
    orbit = iterate_orbit(MapConfig(x0=0.1, r=3.6, scheme=EvaluationScheme.E1), 16)
    expected = [normalize_sample(float(v)) for v in orbit.samples[1:]]
    assert stream.tolist() == expected
    assert stream.dtype == np.uint8
    # the x0 byte itself never appears at position 0
    assert stream[0] == normalize_sample(float(orbit.samples[1]))


def test_stream_deterministic():
    config = KeystreamConfig.single_orbit()
    a = generate_keystream(config, 4096)
    b = generate_keystream(config, 4096)
    assert np.array_equal(a, b)


def test_stream_prefix_stability():
    config = KeystreamConfig.single_orbit()
    short = generate_keystream(config, 100)
    long = generate_keystream(config, 1000)
    assert np.array_equal(short, long[:100])


def test_stream_count_limit():
    config = KeystreamConfig.single_orbit(iterations=10)
    with pytest.raises(ValueError, match="provides only"):
        generate_keystream(config, 11)
    assert len(generate_keystream(config, 10)) == 10
    assert len(generate_keystream(config, 0)) == 0


def test_multiseed_stream_is_seedwise_concatenation():
    config = KeystreamConfig.multi_seed(seed_count=3, iterations_per_seed=8)
    stream = generate_keystream(config, 24)
    parts = []
    for x0 in config.seeds():
        orbit = iterate_orbit(
            MapConfig(x0=x0, r=config.r, damping=config.damping, scheme=config.scheme), 8
        )
        parts.extend(normalize_sample(float(v)) for v in orbit.samples[1:])
    assert stream.tolist() == parts


def test_multiseed_truncation():
    config = KeystreamConfig.multi_seed(seed_count=3, iterations_per_seed=8)
    full = generate_keystream(config, 24)
    part = generate_keystream(config, 13)
    assert np.array_equal(part, full[:13])


def test_schemes_give_different_streams():
    a = generate_keystream(KeystreamConfig.single_orbit(scheme=EvaluationScheme.E1), 4096)
    b = generate_keystream(KeystreamConfig.single_orbit(scheme=EvaluationScheme.E2), 4096)
    assert np.mean(a != b) > 0.9  # near-total divergence after transient


def test_e1_e4_streams_identical():
    a = generate_keystream(KeystreamConfig.single_orbit(scheme=EvaluationScheme.E1), 4096)
    b = generate_keystream(KeystreamConfig.single_orbit(scheme=EvaluationScheme.E4), 4096)
    assert np.array_equal(a, b)


# SHA-256 of each device profile's full keystream (available_samples
# bytes). Pinned so that a change to any scheme's operation order, to the
# normalization, or to the platform's binary64 arithmetic fails here, not
# only in a same-machine parity check. Every importable kernel backend is
# checked against the same digests, so the pure reference stays pinned
# when the compiled backend is the default.
PROFILE_KEYSTREAM_SHA256 = {
    "device1": "7e886fae6e90ced7c2f035bbc2706e816012fab410d87c616d502cd2f331dd1b",
    "device1-damped": "29c000e3fea6319a3419bff8400e38a29d4c5b486a24bc1eb8a47e398f87f09f",
    "device2": "657e2aa8193c04f1bae5ca98238dc75909364a516f4b7b1a3f1eb1c2b3f471de",
    "device2-damped": "904662d6396fa276cf1826acdaab2a0ecc32133743d2f5fac7cc614596d4e2a8",
    "device3": "3a100bb6f66c1e1099d98de2be512ef4928e055356f20c326019ade64b2e8995",
    "device3-damped": "21548a5980a66a9ca0772161e72e7fa97cac4c7830789bbf684c5e1b044ce89f",
    "device4": "7e886fae6e90ced7c2f035bbc2706e816012fab410d87c616d502cd2f331dd1b",
    "device4-damped": "29c000e3fea6319a3419bff8400e38a29d4c5b486a24bc1eb8a47e398f87f09f",
}


def _sha256(stream) -> str:
    return hashlib.sha256(stream.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(PROFILE_KEYSTREAM_SHA256))
def test_profile_keystream_golden_digest(name, each_backend):
    config = PROFILES[name].keystream
    full = config.available_samples
    for backend in each_backend():
        miss = generate_keystream(config, full)
        hit = generate_keystream(config, full)
        prefix = generate_keystream(config, 256 * 256)
        assert _sha256(miss) == _sha256(hit) == PROFILE_KEYSTREAM_SHA256[name], backend
        assert prefix.tobytes() == miss[: 256 * 256].tobytes(), backend


# ---------------------------------------------------------------- keystream errors

R4_SINGLE = KeystreamConfig.single_orbit(r=4.0001, x0=0.3, iterations=5000)
R4_MULTI = dict(r=4.0001, damping=None, seed_count=3)
R4_MULTI_200 = KeystreamConfig.multi_seed(iterations_per_seed=200, **R4_MULTI)

# (config, count, warm-up count or None, expected): expected is the first 16
# hex digits of the bytes' SHA-256, or the exact exception type and message.
# r = 4.0001 leaves [-1, 1] before it escapes [-1.5, 1.5], which pins which
# fault wins. The warm-up request caches a shorter prefix first, so the
# request under test runs on a partly warm cache.
KEYSTREAM_OUTCOMES = {
    "single-ok-983": (R4_SINGLE, 983, 500, "c4402c5f29dd353d"),
    "single-bad-sample-984": (
        R4_SINGLE, 984, 983,
        (ValueError, "orbit sample at index 983 (np.float64(-1.0000256164193364)) outside [-1, 1]"),
    ),
    "single-escape-beats-bad-sample-989": (
        R4_SINGLE, 989, 983,
        (OrbitDivergenceError, "orbit escaped [-1.5, 1.5] at iteration 989 (value -2.934811774830979)"),
    ),
    "single-escape-9": (
        KeystreamConfig.single_orbit(r=4.2, x0=0.1, iterations=100), 10, 7,
        (OrbitDivergenceError, "orbit escaped [-1.5, 1.5] at iteration 9 (value 1.7773743727677211)"),
    ),
    "multi-escape-past-requested-bytes": (
        KeystreamConfig.multi_seed(iterations_per_seed=1000, **R4_MULTI), 5, None,
        (OrbitDivergenceError, "orbit escaped [-1.5, 1.5] at iteration 772 (value -3.8596699854784715)"),
    ),
    "multi-ok-first-seed": (R4_MULTI_200, 5, 3, "339f9a2b7e67d050"),
    "multi-escape-second-seed": (
        R4_MULTI_200, 205, 5,
        (OrbitDivergenceError, "orbit escaped [-1.5, 1.5] at iteration 6 (value -4.162638398084285)"),
    ),
    "single-r": (
        KeystreamConfig.single_orbit(r=-1), 5, None,
        (ValueError, "bifurcation parameter must be finite and > 0, got -1"),
    ),
    "single-x0": (
        KeystreamConfig.single_orbit(x0=1.5), 5, None,
        (ValueError, "initial condition must lie in [-1, 1], got 1.5"),
    ),
    "single-x0-count-0": (
        KeystreamConfig.single_orbit(x0=1.5), 0, None,
        (ValueError, "initial condition must lie in [-1, 1], got 1.5"),
    ),
    "single-damping": (
        KeystreamConfig.single_orbit(damping=0.0), 5, None,
        (ValueError, "damping must lie in (0, 1], got 0.0"),
    ),
    "multi-r": (
        KeystreamConfig.multi_seed(r=-1), 5, None,
        (ValueError, "bifurcation parameter must be finite and > 0, got -1"),
    ),
    "multi-r-count-0": (KeystreamConfig.multi_seed(r=-1), 0, None, "e3b0c44298fc1c14"),
    "multi-damping": (
        KeystreamConfig.multi_seed(damping=0.0), 5, None,
        (ValueError, "damping must lie in (0, 1], got 0.0"),
    ),
}


@pytest.mark.parametrize("case", sorted(KEYSTREAM_OUTCOMES))
def test_keystream_outcome_on_miss_and_hit(case, each_backend):
    config, count, warm, expected = KEYSTREAM_OUTCOMES[case]
    for backend in each_backend():
        if warm is not None:
            generate_keystream(config, warm)
        for _ in range(2):  # the second call finds the first one's result or nothing
            if isinstance(expected, str):
                assert _sha256(generate_keystream(config, count))[:16] == expected, backend
            else:
                with pytest.raises(expected[0]) as info:
                    generate_keystream(config, count)
                assert type(info.value) is expected[0], backend
                assert str(info.value) == expected[1], backend


# ---------------------------------------------------------------- key cache


@pytest.fixture()
def empty_cache():
    keygen._clear_cache()
    yield keygen._cache
    keygen._clear_cache()


def test_cache_returns_private_copies(empty_cache):
    config = KeystreamConfig.single_orbit()
    miss = generate_keystream(config, 4096)
    expected = miss.copy()
    miss[:] = 0
    hit = generate_keystream(config, 4096)
    assert np.array_equal(hit, expected)
    hit[:] = 0
    assert np.array_equal(generate_keystream(config, 100), expected[:100])
    assert hit.flags.writeable and miss.flags.writeable


def test_cache_keeps_only_what_was_computed(empty_cache):
    config = KeystreamConfig.multi_seed(seed_count=3, iterations_per_seed=8)
    generate_keystream(config, 5)
    assert [len(s) for s in empty_cache._entries.values()] == [8]  # one whole seed block
    generate_keystream(config, 20)
    assert [len(s) for s in empty_cache._entries.values()] == [24]
    generate_keystream(config, 5)
    assert [len(s) for s in empty_cache._entries.values()] == [24]


def test_cache_never_stores_a_failure(empty_cache):
    config = KeystreamConfig.single_orbit(r=4.2, x0=0.1, iterations=100)
    for _ in range(3):
        with pytest.raises(OrbitDivergenceError):
            generate_keystream(config, 10)
    assert empty_cache.nbytes == 0


@pytest.mark.parametrize(
    "a, b",
    [
        (KeystreamConfig.single_orbit(x0=0.0), KeystreamConfig.single_orbit(x0=-0.0)),
        (KeystreamConfig.single_orbit(r=4), KeystreamConfig.single_orbit(r=4.0)),
        (KeystreamConfig.multi_seed(r=3), KeystreamConfig.multi_seed(r=3.0)),
    ],
)
def test_equal_configs_give_equal_bytes(a, b, empty_cache):
    assert a == b
    cold = generate_keystream(b, 3000)
    keygen._clear_cache()
    assert np.array_equal(generate_keystream(a, 3000), cold)
    assert np.array_equal(generate_keystream(b, 3000), cold)  # served from a's entry


def test_cache_byte_budget_holds(empty_cache):
    for i in range(100):
        generate_keystream(KeystreamConfig.single_orbit(x0=i / 1000), 30_000)
        assert empty_cache.nbytes <= keygen.CACHE_BYTES
    stored = list(empty_cache._entries.values())
    assert empty_cache.nbytes == sum(s.nbytes + empty_cache.ENTRY_OVERHEAD for s in stored)
    assert 0 < len(stored) < 100
    assert all(not s.flags.writeable for s in stored)


def test_cache_skips_streams_over_budget(empty_cache):
    big = KeystreamConfig.single_orbit(iterations=keygen.CACHE_BYTES + 1)
    stream = generate_keystream(big, keygen.CACHE_BYTES)
    assert len(stream) == keygen.CACHE_BYTES and stream.flags.writeable
    assert empty_cache.nbytes == 0


def test_cache_is_consistent_under_concurrent_callers(empty_cache):
    configs = [KeystreamConfig.single_orbit(x0=i / 64) for i in range(24)]
    expected = {}
    for config in configs:
        expected[config] = generate_keystream(config, 40_000)
    keygen._clear_cache()

    def step(rng, errors):
        config = configs[rng.integers(len(configs))]
        count = int(rng.integers(0, 40_001))
        if not np.array_equal(generate_keystream(config, count), expected[config][:count]):
            errors.append((config, count))

    _run_concurrently(step)
    _assert_accounting(empty_cache)


def _assert_accounting(cache):
    stored = list(cache._entries.values())
    assert cache.nbytes == sum(s.nbytes + cache.ENTRY_OVERHEAD for s in stored)
    assert cache.nbytes <= keygen.CACHE_BYTES
    assert all(not s.flags.writeable for s in stored)


def _run_concurrently(step, threads=6, steps=60):
    """Run ``step(rng, errors)`` ``steps`` times on each of ``threads``
    threads with a tiny switch interval; fails on any error recorded.
    """
    errors = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(steps):
                step(rng, errors)
        except Exception as exc:  # reported below; a thread cannot fail the test itself
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(seed,)) for seed in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert errors == []


# ---------------------------------------------------------------- key-matrix cache


def _filled(config, width, height):
    """The matrix as built without the cache."""
    return build_key_matrix(generate_keystream(config, width * height), width, height).cells


def test_matrix_cache_returns_private_copies(each_backend):
    config = PROFILES["device2-damped"].keystream
    for backend in each_backend():
        expected = _filled(config, 64, 48)
        keygen._clear_cache()
        for state in ("cold", "warm"):
            matrix = key_matrix_for(config, 64, 48)
            stored = keygen._cache._entries[(config, 64, 48)]
            assert not np.shares_memory(matrix.cells, stored), (backend, state)
            assert np.array_equal(matrix.cells, expected), (backend, state)
            assert not matrix.cells.flags.writeable
            matrix.cells.flags.writeable = True
            matrix.cells[:] = 0
            assert np.array_equal(key_matrix_for(config, 64, 48).cells, expected), (backend, state)


def test_matrix_cache_never_stores_a_failure(each_backend):
    diverging = KeystreamConfig.single_orbit(r=4.2, x0=0.1, iterations=100)
    short = KeystreamConfig.single_orbit(iterations=10)
    for backend in each_backend():
        for state in ("cold", "warm"):
            if state == "warm":
                key_matrix_for(PROFILES["device1"].keystream, 8, 8)
            before = (keygen._cache.nbytes, list(keygen._cache._entries))
            for _ in range(2):
                with pytest.raises(OrbitDivergenceError):
                    key_matrix_for(diverging, 5, 2)
                with pytest.raises(ValueError, match="provides only 10"):
                    key_matrix_for(short, 4, 4)
            assert (keygen._cache.nbytes, list(keygen._cache._entries)) == before, (backend, state)
            if state == "cold":
                assert keygen._cache.nbytes == 0, backend


def test_cache_byte_budget_holds_with_matrices(empty_cache):
    configs = [KeystreamConfig.single_orbit(x0=i / 1000) for i in range(40)]
    for state in ("cold", "warm"):
        for config in configs:
            key_matrix_for(config, 200, 150)
            generate_keystream(config, 40_000)
            _assert_accounting(empty_cache)
        kinds = Counter(type(key) for key in empty_cache._entries)
        assert kinds[tuple] > 0 and kinds[KeystreamConfig] > 0, state
        assert len(empty_cache._entries) < 2 * len(configs), state
    assert np.array_equal(key_matrix_for(configs[-1], 200, 150).cells, _filled(configs[-1], 200, 150))


def test_second_pass_over_profiles_skips_keygen_and_fill(each_backend, monkeypatch):
    calls = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(keygen, "build_key_matrix", counting("fill", keygen.build_key_matrix))
    monkeypatch.setattr(keygen, "generate_keystream", counting("stream", keygen.generate_keystream))
    for backend in each_backend():
        monkeypatch.setattr(_backend, "keystream", counting("keystream", _backend.keystream))
        calls.clear()
        cold = [key_matrix_for(p.keystream, 256, 256).cells for p in PROFILES.values()]
        assert calls == {"stream": len(PROFILES), "keystream": len(PROFILES), "fill": len(PROFILES)}, backend
        calls.clear()
        warm = [key_matrix_for(p.keystream, 256, 256).cells for p in PROFILES.values()]
        assert calls == {"stream": len(PROFILES)}, backend  # every key still passes the stream layer
        assert all(np.array_equal(a, b) for a, b in zip(cold, warm)), backend
        _assert_accounting(keygen._cache)


def test_matrix_cache_is_consistent_under_concurrent_callers(empty_cache):
    # more entries than the budget holds, so threads read while others evict
    configs = [KeystreamConfig.single_orbit(x0=i / 64) for i in range(40)]
    shapes = [(200, 200), (150, 100), (64, 48)]
    expected = {(c, w, h): _filled(c, w, h) for c in configs for w, h in shapes}
    assert sum(m.nbytes for m in expected.values()) > keygen.CACHE_BYTES
    keygen._clear_cache()

    def step(rng, errors):
        config = configs[rng.integers(len(configs))]
        width, height = shapes[rng.integers(len(shapes))]
        if rng.integers(4) == 0:  # streams and matrices share the budget
            generate_keystream(config, int(rng.integers(0, 40_001)))
        elif not np.array_equal(key_matrix_for(config, width, height).cells,
                                expected[config, width, height]):
            errors.append((config, width, height))

    _run_concurrently(step)
    _assert_accounting(empty_cache)


# ---------------------------------------------------------------- key matrix


def test_matrix_fill_is_column_major():
    stream = np.arange(6, dtype=np.uint8)
    matrix = build_key_matrix(stream, width=3, height=2)
    # bytes run top to bottom within a column, then to the next column
    assert matrix.cells.tolist() == [[0, 2, 4], [1, 3, 5]]
    assert matrix.width == 3
    assert matrix.height == 2


def test_matrix_truncates_long_stream():
    stream = np.arange(10, dtype=np.uint8)
    matrix = build_key_matrix(stream, width=2, height=2)
    assert matrix.cells.tolist() == [[0, 2], [1, 3]]


def test_matrix_rejects_short_stream():
    with pytest.raises(ValueError):
        build_key_matrix(np.arange(3, dtype=np.uint8), width=2, height=2)


def test_matrix_rejects_values_above_254():
    with pytest.raises(ValueError):
        build_key_matrix(np.array([255, 0, 0, 0], dtype=np.uint8), width=2, height=2)


@pytest.mark.parametrize(
    "cells", [np.array([[300, 1]]), np.array([[44, 1]], dtype=np.int16), np.array([[1.9, 1.0]])]
)
def test_key_matrix_rejects_non_uint8_cells(cells):
    # no silent coercion: 300 would wrap to 44 and 1.9 truncate to 1
    with pytest.raises(ValueError, match="key cells must be uint8"):
        KeyMatrix(cells=cells)


@pytest.mark.parametrize("stream", [np.array([256, 1, 2, 3]), np.array([1.9, 1.0, 2.0, 3.0])])
def test_matrix_rejects_non_uint8_stream(stream):
    with pytest.raises(ValueError, match="key stream must be uint8"):
        build_key_matrix(stream, width=2, height=2)


@pytest.mark.parametrize("stream", [bytes(range(6)), bytearray(range(6))])
def test_matrix_accepts_bytes(stream):
    assert build_key_matrix(stream, width=3, height=2).cells.tolist() == [[0, 2, 4], [1, 3, 5]]


def test_key_matrix_for_shapes_and_bounds():
    config = KeystreamConfig.single_orbit(iterations=64)
    matrix = key_matrix_for(config, 8, 8)
    assert matrix.cells.shape == (8, 8)
    assert matrix.cells.max() <= KEY_BYTE_MAX
    stream = generate_keystream(config, 64)
    assert np.array_equal(matrix.cells, stream.reshape((8, 8), order="F"))
