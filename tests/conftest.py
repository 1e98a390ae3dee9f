import numpy as np
import pytest

from cubicrypt import KERNEL_BACKEND, available_backends
from cubicrypt.cipher import GrayImage
from cubicrypt.testimage import synthetic_test_image


def pytest_report_header(config):
    # names the kernels under test, so a skipped parity module shows in the log
    return f"cubicrypt kernels: default {KERNEL_BACKEND}, importable {sorted(available_backends())}"


@pytest.fixture(scope="session")
def test_image() -> GrayImage:
    return synthetic_test_image(256, 256)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260819)


def random_image(rng: np.random.Generator, width: int = 256, height: int = 256) -> GrayImage:
    return GrayImage(pixels=rng.integers(0, 256, size=(height, width), dtype=np.uint8))
