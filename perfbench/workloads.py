"""The four seeded workloads: inputs, the timed operation, the output check.

A workload builds one pass of operations from the seed. A run repeats
whole passes, so every run has the same operation mix whatever its
length. ``prepare`` writes an operation's input files, untimed. ``call``
is the only timed part; it reaches the program through module
attributes (``cubicrypt.exchange.run_exchange``, ...), which is where
tracing.py installs its wrappers. ``verify`` compares the output with
values derived in reference.py and returns the bytes that go into the
run's output digest; a wrong output raises WrongOutput.
"""

import contextlib
import io
import json
import os
import shutil
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cubicrypt.analysis
import cubicrypt.cipher
import cubicrypt.cli
import cubicrypt.exchange
import cubicrypt.keygen
import cubicrypt.maps
import reference as ref

NAMES = ("exchange-mem", "exchange-tcp-small", "cli-files", "lbe-sweep")


class WrongOutput(Exception):
    """The program's output differs from the reference."""


class PinnedDigestMismatch(Exception):
    """A profile keystream or a default-seed output digest changed."""


def _rng(seed: int, name: str, *extra: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode()), *extra])


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise WrongOutput(what)


def verified_streams() -> dict[str, np.ndarray]:
    """Each profile's full keystream from the program, checked against its pin."""
    streams = {}
    for name, profile in cubicrypt.exchange.PROFILES.items():
        config = profile.keystream
        stream = cubicrypt.keygen.generate_keystream(config, config.available_samples)
        if ref.sha256(stream) != ref.PROFILE_SHA256.get(name):
            raise PinnedDigestMismatch(f"keystream of profile {name} differs from its pinned SHA-256")
        streams[name] = stream
    return streams


class Workload:
    """Defaults: closed loop, nothing to prepare, nothing to clean up."""

    rate: float | None = None  # operations per second for an open loop

    def prepare(self, op, pass_no: int) -> None:
        pass

    def close(self) -> None:
        pass


def _entropy_bits(pixels: np.ndarray) -> float:
    counts = np.bincount(pixels.ravel(), minlength=256)
    p = counts[counts > 0] / pixels.size
    return float(-(p * np.log2(p)).sum())


@dataclass(frozen=True)
class ExchangeOp:
    sender: str
    receiver: str
    image: np.ndarray


class Exchange(Workload):
    """``run_exchange`` between two device profiles over one transport.

    exchange-mem: closed loop, every ordered pair of the 8 profiles on
    256x256 images, the paper's headline path, where the orbit and
    normalize kernels dominate. exchange-tcp-small: open loop at a fixed
    rate, one image per side length from 8 to 32, where the transport and
    per-call overhead dominate. The rate is capped because every exchange
    leaves one socket in TIME-WAIT for about a minute.
    """

    def __init__(self, name: str, seed: int, streams: dict[str, np.ndarray], tiny: bool = False):
        self.name = name
        self.streams = streams
        rng = _rng(seed, name)
        profiles = list(ref.PROFILE_SHA256)
        if name == "exchange-mem":
            self.transport = "memory"
            pairs = [(s, r) for s in profiles for r in profiles]
            pairs = [pairs[i] for i in rng.permutation(len(pairs))][: 8 if tiny else None]
            sides = [16 if tiny else 256] * len(pairs)
        else:
            self.transport, self.rate = "tcp", 50.0
            sides = [int(s) for s in rng.permutation(np.arange(8, 11 if tiny else 33))]
            pairs = [(profiles[i], profiles[j]) for i, j in rng.integers(0, len(profiles), (len(sides), 2))]
        self.ops = [
            ExchangeOp(s, r, rng.integers(0, 256, (side, side), dtype=np.uint8))
            for (s, r), side in zip(pairs, sides)
        ]
        self._expected: dict[int, tuple] = {}

    def call(self, op: ExchangeOp, pass_no: int):
        profiles = cubicrypt.exchange.PROFILES
        image = cubicrypt.cipher.GrayImage(op.image)
        return cubicrypt.exchange.run_exchange(
            profiles[op.sender], profiles[op.receiver], image, transport=self.transport
        )

    def expected(self, op: ExchangeOp) -> tuple:
        key = id(op)
        if key not in self._expected:
            height, width = op.image.shape
            k_send = ref.key_matrix(self.streams[op.sender], width, height)
            k_recv = ref.key_matrix(self.streams[op.receiver], width, height)
            candidate = op.image ^ k_send ^ k_recv
            self._expected[key] = (
                candidate,
                float(np.mean(candidate == op.image)),
                float(np.mean(k_send != k_recv)),
                _entropy_bits(candidate),
                bool(np.array_equal(k_send, k_recv)),
            )
        return self._expected[key]

    def verify(self, op: ExchangeOp, pass_no: int, report) -> bytes:
        candidate, match, key_mismatch, h_bits, same_key = self.expected(op)
        _expect((report.sender, report.receiver) == (op.sender, op.receiver), "wrong device names")
        _expect(
            np.array_equal(report.candidate.pixels, candidate),
            "candidate differs from image ^ K_sender ^ K_receiver",
        )
        _expect(report.match_fraction == match, "wrong match_fraction")
        _expect(not same_key or report.match_fraction == 1.0, "equal keys but match_fraction < 1")
        _expect(report.key_mismatch_fraction == key_mismatch, "wrong key_mismatch_fraction")
        _expect(abs(report.candidate_entropy.h_bits - h_bits) <= 1e-9, "wrong candidate entropy")
        scores = (report.match_fraction, report.key_mismatch_fraction, report.candidate_entropy.h_bits)
        return report.candidate.pixels.tobytes() + repr(scores).encode()


def _pgm(pixels: np.ndarray, binary: bool) -> bytes:
    height, width = pixels.shape
    header = f"{'P5' if binary else 'P2'}\n{width} {height}\n255\n".encode()
    if binary:
        return header + pixels.tobytes()
    return header + "".join(" ".join(map(str, row)) + "\n" for row in pixels.tolist()).encode()


@dataclass(frozen=True)
class CliOp:
    index: int
    binary: bool
    image: np.ndarray

    @property
    def plain(self) -> str:
        return f"plain{self.index}.pgm"

    @property
    def cipher(self) -> str:
        return f"cipher{self.index}.pgm"


class CliFiles(Workload):
    """``cubicrypt encrypt`` and ``decrypt`` through ``cli.main``, in-process.

    An operation encrypts a plain file and decrypts a ciphertext that the
    benchmark prepared, each with its own fresh seeded --x0, so no
    keystream ever repeats: this is the workload on which a key cache can
    only cost. Three P5 operations and one P2 operation per pass put the
    median among the P5 ones and the 90th percentile among the P2 ones,
    not on the boundary between them. Files live in a private directory
    under the checkout; argv uses bare names so manifests do not depend on
    where the checkout is.
    """

    name = "cli-files"

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self._home = os.getcwd()
        workdir.mkdir(parents=True, exist_ok=False)
        os.chdir(workdir)
        rng = _rng(seed, self.name)
        side = 16 if tiny else 256
        self.ops = []
        for index, binary in enumerate(rng.permutation([True, True, True, False])):
            op = CliOp(index, bool(binary), rng.integers(0, 256, (side, side), dtype=np.uint8))
            Path(op.plain).write_bytes(_pgm(op.image, op.binary))
            self.ops.append(op)

    def _x0s(self, op: CliOp, pass_no: int) -> tuple[float, float]:
        # pass_no is -1 for the warm-up; shift it to stay a valid seed word
        x0_encrypt, x0_decrypt = _rng(self.seed, self.name, pass_no + 1, op.index).uniform(0.05, 0.95, 2)
        return float(x0_encrypt), float(x0_decrypt)

    def _key(self, op: CliOp, x0: float) -> np.ndarray:
        height, width = op.image.shape
        return ref.key_matrix(ref.keystream("device1", width * height, x0=x0), width, height)

    def prepare(self, op: CliOp, pass_no: int) -> None:
        Path(op.cipher).write_bytes(_pgm(op.image ^ self._key(op, self._x0s(op, pass_no)[1]), op.binary))

    def call(self, op: CliOp, pass_no: int):
        x0_encrypt, x0_decrypt = map(repr, self._x0s(op, pass_no))
        with contextlib.redirect_stdout(io.StringIO()):
            return [
                cubicrypt.cli.main(argv)
                for argv in (
                    ["encrypt", "--in", op.plain, "--out", "enc.pgm", "--x0", x0_encrypt],
                    ["decrypt", "--in", op.cipher, "--out", "dec.pgm", "--x0", x0_decrypt],
                )
            ]

    def verify(self, op: CliOp, pass_no: int, codes) -> bytes:
        _expect(codes == [0, 0], f"exit codes {codes}")
        encrypted, decrypted = Path("enc.pgm").read_bytes(), Path("dec.pgm").read_bytes()
        key = self._key(op, self._x0s(op, pass_no)[0])
        _expect(encrypted == _pgm(op.image ^ key, True), "encrypted file differs from image ^ K")
        _expect(decrypted == _pgm(op.image, True), "decrypted file differs from the plain image")
        manifests = [Path(f"{out}.manifest.json").read_bytes() for out in ("enc.pgm", "dec.pgm")]
        subcommands = [json.loads(m)["subcommand"] for m in manifests]
        _expect(subcommands == ["encrypt", "decrypt"], f"manifest subcommands {subcommands}")
        return encrypted + decrypted

    def close(self) -> None:
        os.chdir(self._home)
        shutil.rmtree(self.workdir, ignore_errors=True)


@dataclass(frozen=True)
class LbeOp:
    x0: float
    scheme_a: int
    scheme_b: int
    damped: bool
    n: int


class LbeSweep(Workload):
    """Lower bound error and Lyapunov fit between two schemes' orbits.

    Library calls only. Per pass every unordered scheme pair of e1..e4
    appears undamped (r = 3.6) and damped (r = 3.61, damping 0.89) equally
    often, with stratified orbit lengths over 100..5000, so the latency
    quantiles do not move with the seed. Short orbits make per-call
    overhead, not per-iteration cost, the main cost.
    """

    name = "lbe-sweep"
    LEVEL = 1e-3

    def __init__(self, seed: int, tiny: bool = False):
        rng = _rng(seed, self.name)
        pairs = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
        combos = [(pair, damped) for pair in pairs for damped in (False, True)] * (1 if tiny else 4)
        count = len(combos)
        lengths = 100 + ((np.arange(count) + rng.random(count)) * 4900 / count).astype(int)
        lengths = rng.permutation(lengths)
        self.ops = []
        for i, length in zip(rng.permutation(count), lengths):
            (a, b), damped = combos[i]
            if rng.random() < 0.5:
                a, b = b, a
            self.ops.append(LbeOp(float(rng.uniform(0.05, 0.95)), a, b, damped, int(length)))
        self._expected: dict[int, tuple] = {}

    def call(self, op: LbeOp, pass_no: int):
        maps, analysis = cubicrypt.maps, cubicrypt.analysis
        r, damping = (3.61, 0.89) if op.damped else (3.6, None)
        a = maps.iterate_orbit(maps.MapConfig(r=r, x0=op.x0, damping=damping, scheme=op.scheme_a), op.n)
        b = maps.iterate_orbit(maps.MapConfig(r=r, x0=op.x0, damping=damping, scheme=op.scheme_b), op.n)
        series = analysis.lower_bound_error(a, b)
        try:
            fit = analysis.lyapunov_from_lbe(series)
        except ValueError as exc:
            fit = exc
        return a, b, series, fit, series.first_reaching(self.LEVEL)

    def expected(self, op: LbeOp) -> tuple:
        key = id(op)
        if key not in self._expected:
            r, damping = (3.61, 0.89) if op.damped else (3.6, 1.0)
            orbit_a = ref.orbit(op.x0, r, op.scheme_a, damping, op.n)
            orbit_b = ref.orbit(op.x0, r, op.scheme_b, damping, op.n)
            delta = np.abs(orbit_a - orbit_b)
            hits = np.flatnonzero(delta >= self.LEVEL)
            first = int(hits[0]) if len(hits) else None
            self._expected[key] = (orbit_a, orbit_b, delta, _expected_fit(delta), first)
        return self._expected[key]

    def verify(self, op: LbeOp, pass_no: int, result) -> bytes:
        a, b, series, fit, first = result
        orbit_a, orbit_b, delta, exp_fit, exp_first = self.expected(op)
        _expect(_same_bits(a.samples, orbit_a), "orbit a differs from the reference")
        _expect(_same_bits(b.samples, orbit_b), "orbit b differs from the reference")
        _expect(_same_bits(series.delta, delta), "LBE differs from |a - b|")
        if {op.scheme_a, op.scheme_b} == {1, 4}:
            _expect(
                not np.any(series.delta) and isinstance(fit, ValueError),
                "e1/e4 LBE must be all zeros and its fit refused",
            )
        _expect(first == exp_first, f"first_reaching {first} != {exp_first}")
        if exp_fit is None:
            _expect(isinstance(fit, ValueError), "fit accepted where it must be refused")
            fit_text = "refused"
        else:
            start, end, n_points, slope = exp_fit
            _expect(not isinstance(fit, Exception), f"fit refused: {fit}")
            _expect((fit.fit_range, fit.n_points) == ((start, end), n_points), "wrong fit window")
            _expect(abs(fit.exponent - slope) <= 1e-9 * max(1.0, abs(slope)), "wrong Lyapunov exponent")
            fit_text = repr((fit.exponent, fit.intercept, fit.fit_range, fit.r_squared, fit.n_points))
        return a.samples.tobytes() + b.samples.tobytes() + f"{fit_text};{first}".encode()


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return x.shape == y.shape and bool(np.array_equal(x.view(np.uint64), y.view(np.uint64)))


def _expected_fit(delta: np.ndarray, saturation: float = 0.1):
    """(first, last, count, slope) of the default Lyapunov fit window, or None
    where the fit must be refused: no nonzero delta, fewer than 2 positive
    entries, or more zero entries than positive ones in the window.
    """
    nonzero = np.flatnonzero(delta > 0.0)
    if not len(nonzero):
        return None
    start = int(nonzero[0])
    saturated = np.flatnonzero(delta[start:] >= saturation)
    end = start + int(saturated[0]) if len(saturated) else len(delta)
    usable = np.arange(start, end)[delta[start:end] > 0.0]
    if len(usable) < 2 or 2 * len(usable) < end - start:
        return None
    slope = float(np.polyfit(usable.astype(np.float64), np.log(delta[usable]), 1)[0])
    return int(usable[0]), int(usable[-1]), len(usable), slope


def make(name: str, seed: int, streams: dict[str, np.ndarray], workdir: Path, tiny: bool = False):
    if name in ("exchange-mem", "exchange-tcp-small"):
        return Exchange(name, seed, streams, tiny)
    if name == "cli-files":
        return CliFiles(seed, workdir, tiny)
    if name == "lbe-sweep":
        return LbeSweep(seed, tiny)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
