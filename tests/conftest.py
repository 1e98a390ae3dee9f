import numpy as np
import pytest

from cubicrypt import KERNEL_BACKEND, _backend, available_backends, keygen
from cubicrypt.cipher import GrayImage
from cubicrypt.testimage import synthetic_test_image


def pytest_report_header(config):
    # names the kernels under test, so a skipped parity module shows in the log
    return f"cubicrypt kernels: default {KERNEL_BACKEND}, importable {sorted(available_backends())}"


@pytest.fixture()
def each_backend(monkeypatch):
    """Call to iterate over the importable backends' names, each patched in
    (its keystream and byte-count kernels) with the key cache empty; the
    cache is emptied again at the end.
    """

    def backends():
        for backend, kernels in sorted(available_backends().items()):
            monkeypatch.setattr(_backend, "keystream", kernels.keystream)
            monkeypatch.setattr(_backend, "byte_counts", kernels.byte_counts)
            keygen._clear_cache()
            yield backend
        keygen._clear_cache()

    return backends


@pytest.fixture(scope="session")
def test_image() -> GrayImage:
    return synthetic_test_image(256, 256)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)


def random_image(rng: np.random.Generator, width: int = 256, height: int = 256) -> GrayImage:
    return GrayImage(pixels=rng.integers(0, 256, size=(height, width), dtype=np.uint8))
