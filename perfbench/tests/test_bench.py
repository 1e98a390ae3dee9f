"""Tests of the benchmark itself: python3 -m pytest -q perfbench/tests"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cubicrypt.cli  # noqa: E402
import cubicrypt.exchange  # noqa: E402
import kernels  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def streams():
    return workloads.verified_streams()


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_reference_reproduces_pinned_profile_digests():
    for profile, digest in ref.PROFILE_SHA256.items():
        assert ref.sha256(ref.keystream(profile)) == digest, profile


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_smoke_run(name):
    result = worker.run(name, seed=3, seconds=0.2, tiny=True)
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert result["ops_per_s"] > 0 and result["latency_ms_p90"] >= result["latency_ms_p50"] > 0


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = _bench("--workload", "exchange-tcp-small", "--seed", "1", "--seconds", "0.2",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[key]}


def test_no_argument_run_covers_benchmark_json():
    proc = _bench("--seconds", "0.2", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    expected = {f"{w['name']}.{m['name']}": m["unit"] for w in SPEC["workloads"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_no_argument_run_lasts_run_seconds():
    assert run.parse_args([], SPEC).seconds == SPEC["run_seconds"]


def _flip_first_key_byte(monkeypatch, module):
    original = module.key_matrix_for
    calls = []

    def corrupt(config, width, height):
        key = original(config, width, height)
        calls.append(1)
        if len(calls) > 1:
            return key
        cells = key.cells.copy()
        cells[0, 0] = (int(cells[0, 0]) + 1) % 255  # stays a valid key byte
        return type(key)(cells=cells)

    monkeypatch.setattr(module, "key_matrix_for", corrupt)


@pytest.mark.parametrize("name, module", [("exchange-mem", cubicrypt.exchange), ("cli-files", cubicrypt.cli)])
def test_one_flipped_key_byte_counts_as_one_failure(name, module, streams, monkeypatch, tmp_path):
    workload = workloads.make(name, 5, streams, tmp_path / "work", tiny=True)
    try:
        _flip_first_key_byte(monkeypatch, module)
        m = worker.measure(workload, 0)
    finally:
        workload.close()
    assert (m.attempted, m.failed) == (len(workload.ops), 1)


def test_host_scaling_cancels_a_slow_stretch():
    times = [1.0, 2.0, 3.0] * 10
    calibrations = [worker.CALIBRATION_REF_S] * 30
    slow = [t * 1.6 if i >= 15 else t for i, t in enumerate(times)]
    slow_calibrations = [c * 1.6 if i >= 15 else c for i, c in enumerate(calibrations)]
    assert worker.host_scaled(times, calibrations) == pytest.approx(times)
    scaled = worker.host_scaled(slow, slow_calibrations)
    # only ops whose window straddles the switch stay off
    half = worker.CALIBRATION_WINDOW // 2
    assert scaled[:15 - half] == pytest.approx(times[:15 - half])
    assert scaled[15 + half:] == pytest.approx(times[15 + half:])


def test_windowed_quantiles_skip_a_burst_but_not_a_slow_op():
    ops_per_pass = 5
    one_pass = [1e-3, 2e-3, 3e-3, 4e-3, 5e-3]
    runs = one_pass * 100  # 10 windows of 10 passes
    p50, p90 = worker.windowed_quantiles_ms(runs, ops_per_pass)
    burst = [t * 3 if 100 <= i < 300 else t for i, t in enumerate(runs)]  # 2 windows of 10
    assert worker.windowed_quantiles_ms(burst, ops_per_pass) == pytest.approx((p50, p90))
    slow_op = [t * 3 if i % ops_per_pass == 4 else t for i, t in enumerate(runs)]
    assert worker.windowed_quantiles_ms(slow_op, ops_per_pass)[1] > 2 * p90


def test_pinned_digest_mismatch_is_an_error(monkeypatch):
    monkeypatch.setitem(ref.WORKLOAD_SHA256, "cli-files", "0" * 64)
    with pytest.raises(workloads.PinnedDigestMismatch):
        worker.run("cli-files", ref.DEFAULT_SEED, 0)
    monkeypatch.setitem(ref.PROFILE_SHA256, "device2", "0" * 64)
    with pytest.raises(workloads.PinnedDigestMismatch):
        workloads.verified_streams()


def test_equal_streams_match_fully(streams):
    assert np.array_equal(streams["device1"], streams["device4"])
    workload = workloads.make("exchange-tcp-small", 0, streams, None, tiny=True)
    op = workloads.ExchangeOp("device1", "device4", workload.ops[0].image)
    assert workload.verify(op, 0, workload.call(op, 0))


def test_tracer_restores_every_wrapped_function():
    before = {(path, attr): getattr(tracing._owner(path), attr) for _, path, attr in tracing.TARGETS}
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cubicrypt.exchange.run_exchange is not before[("cubicrypt.exchange", "run_exchange")]
    after = {(path, attr): getattr(tracing._owner(path), attr) for _, path, attr in tracing.TARGETS}
    assert after == before


def test_a_missing_layer_fails_the_traced_run(monkeypatch):
    original = cubicrypt.exchange.run_exchange
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("gone.layer", "cubicrypt.exchange", "gone"),))
    with pytest.raises(AttributeError):
        with tracing.Tracer().installed():
            pass
    assert cubicrypt.exchange.run_exchange is original


def test_traced_spans_nest_and_self_times_add_up(streams):
    workload = workloads.make("exchange-mem", 2, streams, None, tiny=True)
    tracer = tracing.Tracer()
    m = worker.measure(workload, 0, tracer)
    assert m.failed == 0 and len(m.traced_latencies) == len(workload.ops)
    metrics = tracer.layer_metrics()
    assert metrics["exchange.run_exchange.calls"] == 1
    assert metrics["keygen.generate_keystream.calls"] == 2
    total = sum(v for k, v in metrics.items() if k.endswith(".self_frac"))
    assert total == pytest.approx(1.0)


def test_kernel_backends_must_agree():
    backends = dict(cubicrypt.available_backends())
    stats = kernels.measure(backends, 2)
    assert set(stats) == set(backends)
    pure = backends["python"]

    def skewed_orbit(x0, r, scheme, damping, n):
        samples, escape = pure.run_orbit(x0, r, scheme, damping, n)
        samples = samples.copy()
        samples[-1] = np.nextafter(samples[-1], 2.0)
        return samples, escape

    fake = types.SimpleNamespace(BACKEND="skewed", run_orbit=skewed_orbit, normalize_block=pure.normalize_block)
    with pytest.raises(kernels.BackendMismatch):
        kernels.measure({"python": pure, "skewed": fake}, 2)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "lbe-sweep", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_knows_the_workloads_of_benchmark_json():
    assert list(run.WORKLOADS) == list(workloads.NAMES)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert set(run.UNITS) == {m["name"] for m in SPEC["end_to_end"]}
