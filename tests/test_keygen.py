import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicrypt import _backend
from cubicrypt.exchange import PROFILES
from cubicrypt.keygen import (
    KEY_BYTE_MAX,
    MITIGATION_DAMPING,
    MULTI_SEED_COUNT,
    MULTI_SEED_ITERATIONS,
    MULTI_SEED_R,
    SINGLE_ORBIT_ITERATIONS,
    KeystreamConfig,
    build_key_matrix,
    generate_keystream,
    key_matrix_for,
    normalize_sample,
)
from cubicrypt.maps import EvaluationScheme, MapConfig, iterate_orbit


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


@pytest.mark.parametrize("name", sorted(PROFILE_KEYSTREAM_SHA256))
def test_profile_keystream_golden_digest(name, monkeypatch):
    config = PROFILES[name].keystream
    for backend, kernels in sorted(_backend.available_backends().items()):
        monkeypatch.setattr(_backend, "run_orbit", kernels.run_orbit)
        monkeypatch.setattr(_backend, "normalize_block", kernels.normalize_block)
        stream = generate_keystream(config, config.available_samples)
        digest = hashlib.sha256(stream.tobytes()).hexdigest()
        assert digest == PROFILE_KEYSTREAM_SHA256[name], f"backend {backend}"


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


def test_key_matrix_for_shapes_and_bounds():
    config = KeystreamConfig.single_orbit(iterations=64)
    matrix = key_matrix_for(config, 8, 8)
    assert matrix.cells.shape == (8, 8)
    assert matrix.cells.max() <= KEY_BYTE_MAX
    stream = generate_keystream(config, 64)
    assert np.array_equal(matrix.cells, stream.reshape((8, 8), order="F"))
