"""Command-line surface.

Every subcommand that writes files also writes a run manifest
(<first output>.manifest.json) recording the subcommand, the fully
resolved parameters, input/output paths, the tool version, and a
canonical argv; re-running that argv reproduces the outputs
byte-for-byte. Manifests carry no timestamps for exactly that reason.

Exit codes: 0 success, 1 runtime failure (I/O, parse, divergence),
2 usage error.
"""

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from cubicrypt import __version__
from cubicrypt.analysis import lower_bound_error, lyapunov_from_lbe
from cubicrypt.cipher import GrayImage, xor_apply
from cubicrypt.exchange import PROFILES, run_exchange, send_image, serve_once
from cubicrypt.keygen import KeystreamConfig, generate_keystream, key_matrix_for
from cubicrypt.maps import EvaluationScheme, MapConfig, OrbitDivergenceError, iterate_orbit
from cubicrypt.metrics import histogram, shannon_entropy
from cubicrypt.pgmio import read_pgm, write_pgm, write_series_csv
from cubicrypt.testimage import synthetic_test_image


def _scheme_arg(text: str) -> EvaluationScheme:
    try:
        return EvaluationScheme.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


class _KeyFlag(NamedTuple):
    dest: str
    field: str  # the KeystreamConfig field it sets
    type: Callable
    mode: str | None  # the keystream mode it belongs to; None for both
    help: str


# Declaration order is the manifest argv order.
_KEY_FLAGS = (
    _KeyFlag("x0", "x0", float, "single", "initial condition (single-orbit mode)"),
    _KeyFlag("r", "r", float, None, "bifurcation parameter"),
    _KeyFlag("scheme", "scheme", _scheme_arg, None, "evaluation scheme e1..e4"),
    _KeyFlag("damping", "damping", float, None, "per-step damping factor in (0,1]"),
    _KeyFlag("iters", "iterations", int, "single", "orbit length (single-orbit mode)"),
    _KeyFlag("seeds", "seed_count", int, "multiseed", "seed count (switches to multi-seed mode)"),
    _KeyFlag("iters_per_seed", "iterations_per_seed", int, "multiseed",
             "iterations per seed (multi-seed mode)"),
)
_KEY_DESTS = ("profile",) + tuple(flag.dest for flag in _KEY_FLAGS)
_INPUT_FLAGS = ("in", "expected")
# Not parameters: --out is the manifest's output, --report only changes stdout.
_UNRECORDED_FLAGS = ("out", "report")


def _option(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _add_key_flags(sub: argparse.ArgumentParser) -> None:
    grp = sub.add_argument_group("key parameters (or --profile)")
    grp.add_argument("--profile", choices=sorted(PROFILES), help="named device preset")
    for flag in _KEY_FLAGS:
        grp.add_argument(_option(flag.dest), type=flag.type, help=flag.help)


def _add_map_flags(sub: argparse.ArgumentParser, *schemes: tuple[str, EvaluationScheme]) -> None:
    """--x0, --r, one flag per (name, default) in ``schemes``, --damping
    and --iters, with MapConfig's defaults; see ``_map_config``.
    """
    sub.add_argument("--x0", type=float, default=MapConfig.x0)
    sub.add_argument("--r", type=float, default=MapConfig.r)
    for name, default in schemes:
        sub.add_argument(name, type=_scheme_arg, default=default)
    sub.add_argument("--damping", type=float, default=MapConfig.damping)
    sub.add_argument("--iters", type=int, default=100)


def _map_config(args: argparse.Namespace, scheme: EvaluationScheme) -> MapConfig:
    return MapConfig(x0=args.x0, r=args.r, scheme=scheme, damping=args.damping)


def _resolve_keystream(args: argparse.Namespace, parser: argparse.ArgumentParser) -> KeystreamConfig:
    """Resolve the key flags (or ``--profile``) into a config and store it
    as ``args.keystream``. Any multi-seed flag selects multi-seed mode.
    Explicit flags are written back with the config's full recipe, so
    the manifest argv names every default.
    """
    given = [flag for flag in _KEY_FLAGS if getattr(args, flag.dest) is not None]
    if args.profile is not None:
        if given:
            parser.error("--profile cannot be combined with " + ", ".join(_option(f.dest) for f in given))
        args.keystream = PROFILES[args.profile].keystream
        return args.keystream
    modes = {flag.mode for flag in given}
    if {"single", "multiseed"} <= modes:
        single, multi = (
            [_option(f.dest) for f in _KEY_FLAGS if f.mode == mode] for mode in ("single", "multiseed")
        )
        parser.error(f"{'/'.join(single)} are single-orbit flags; multi-seed uses {' and '.join(multi)}")
    recipe = KeystreamConfig.multi_seed if "multiseed" in modes else KeystreamConfig.single_orbit
    try:
        config = recipe(**{flag.field: getattr(args, flag.dest) for flag in given})
    except ValueError as exc:
        parser.error(str(exc))
    for flag in _KEY_FLAGS:
        setattr(args, flag.dest, getattr(config, flag.field))
    args.keystream = config
    return config


def _plain(value):
    return value.label if isinstance(value, EvaluationScheme) else value


def _write_manifest(args: argparse.Namespace, **data_params) -> None:
    """Write <args.out>.manifest.json for the running subcommand.

    ``parameters`` and the canonical argv both come from the
    subcommand's declared options, walked in declaration order, so the
    two cannot disagree. Key flags record the resolved
    ``args.keystream``; ``data_params`` are values read from the data
    (image size, histogram total).
    """
    words = args.command_parser.prog.split()[1:]
    keystream = getattr(args, "keystream", None)
    skipped = _UNRECORDED_FLAGS + (_KEY_DESTS if keystream is not None else ())
    argv, parameters, inputs = list(words), {}, []
    for action in args.command_parser._actions:
        if action.dest == "help":
            continue
        value = getattr(args, action.dest)
        if value is not None and value is not False:
            argv.append(action.option_strings[0])
            if action.nargs != 0:
                argv.append(repr(value) if isinstance(value, float) else str(_plain(value)))
        if action.dest in _INPUT_FLAGS:
            if value is not None:
                inputs.append(value)
        elif action.dest not in skipped:
            parameters[action.dest] = _plain(value)
    if keystream is not None:
        parameters |= {f.name: _plain(getattr(keystream, f.name)) for f in fields(keystream)}
    manifest = {
        "subcommand": " ".join(words),
        "parameters": parameters | data_params,
        "inputs": sorted(inputs),
        "outputs": [args.out],
        "argv": argv,
        "version": __version__,
    }
    path = Path(args.out + ".manifest.json")
    path.write_bytes(json.dumps(manifest, indent=2, sort_keys=True).encode() + b"\n")


def replay_argv(manifest_path: str) -> list[str]:
    """Canonical argv recorded in a run manifest, for bit-exact reruns."""
    manifest = json.loads(Path(manifest_path).read_text())
    return list(manifest["argv"])


def _load_image(path: str) -> GrayImage:
    return read_pgm(Path(path).read_bytes())


def _read_data(path: str, raw: bool) -> np.ndarray:
    blob = Path(path).read_bytes()
    if raw:
        return np.frombuffer(blob, dtype=np.uint8)
    return read_pgm(blob).pixels


# ---------------------------------------------------------------- commands


def cmd_simulate(args, parser) -> int:
    orbit = iterate_orbit(_map_config(args, args.scheme), args.iters)
    Path(args.out).write_bytes(write_series_csv(orbit.samples, name="x"))
    _write_manifest(args)
    print(f"wrote {args.iters + 1} samples to {args.out}")
    return 0


def cmd_lbe(args, parser) -> int:
    orbit_a = iterate_orbit(_map_config(args, args.scheme_a), args.iters)
    orbit_b = iterate_orbit(_map_config(args, args.scheme_b), args.iters)
    series = lower_bound_error(orbit_a, orbit_b)
    Path(args.out).write_bytes(write_series_csv(series.delta, name="delta"))
    _write_manifest(args)
    print(f"wrote {len(series)} deltas to {args.out}")
    if args.report:
        try:
            estimate = lyapunov_from_lbe(series)
            fit = [estimate.exponent, estimate.intercept, list(estimate.fit_range),
                   estimate.r_squared, estimate.n_points]
        except ValueError:
            fit = [None] * 5  # too few positive deltas to fit, e.g. identical orbits
        report = dict(zip(("lambda", "intercept", "fit_range", "r_squared", "n_points"), fit))
        report["first_n_at_1e-3"] = series.first_reaching(1e-3)
        print(json.dumps(report, sort_keys=True))
    return 0


def cmd_keygen(args, parser) -> int:
    config = _resolve_keystream(args, parser)
    stream = generate_keystream(config, args.count)
    payload = stream.tobytes()
    if args.hex:
        Path(args.out).write_bytes(payload.hex().encode("ascii") + b"\n")
    else:
        Path(args.out).write_bytes(payload)
    _write_manifest(args)
    print(f"wrote {args.count} key bytes to {args.out}" + (" (hex)" if args.hex else ""))
    return 0


def cmd_xor(args, parser) -> int:
    config = _resolve_keystream(args, parser)
    image = _load_image(getattr(args, "in"))
    key = key_matrix_for(config, image.width, image.height)
    result = xor_apply(image, key)
    Path(args.out).write_bytes(write_pgm(result))
    _write_manifest(args, width=image.width, height=image.height)
    print(f"{args.subcommand}ed {image.width}x{image.height} image -> {args.out}")
    return 0


def cmd_entropy(args, parser) -> int:
    data = _read_data(getattr(args, "in"), args.raw)
    report = shannon_entropy(histogram(data))
    print(f"h_bits={report.h_bits:.8f} h_norm={report.h_norm:.8f}")
    return 0


def cmd_histogram(args, parser) -> int:
    data = _read_data(getattr(args, "in"), args.raw)
    hist = histogram(data)
    Path(args.out).write_bytes(hist.to_csv())
    occupied = hist.bins[hist.bins > 0]
    ratio = float(hist.bins.max()) / float(hist.bins.min()) if hist.bins.min() > 0 else float("inf")
    _write_manifest(args, total=int(hist.total))
    print(
        f"wrote 256 bins to {args.out} "
        f"(occupied={len(occupied)} max={int(hist.bins.max())} "
        f"min={int(hist.bins.min())} max/min={ratio:.4f})"
    )
    return 0


def _parse_addr(text: str, parser) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit() or int(port) > 65535:
        parser.error(f"--addr must be host:port with a port in 0-65535, got {text!r}")
    return host or "127.0.0.1", int(port)


def cmd_exchange_serve(args, parser) -> int:
    host, port = _parse_addr(args.addr, parser)
    profile = PROFILES[args.profile]
    candidate, _ = serve_once(host, port, profile)
    Path(args.out).write_bytes(write_pgm(candidate))
    report = shannon_entropy(histogram(candidate.pixels))
    line = f"received {candidate.width}x{candidate.height} -> {args.out} h_norm={report.h_norm:.6f}"
    if args.expected:
        expected = _load_image(args.expected)
        match = 0.0
        if expected.pixels.shape == candidate.pixels.shape:
            match = np.count_nonzero(candidate.pixels == expected.pixels) / candidate.pixels.size
        line += f" match={match:.6f}"
    _write_manifest(args)
    print(line)
    return 0


def cmd_exchange_send(args, parser) -> int:
    host, port = _parse_addr(args.addr, parser)
    profile = PROFILES[args.profile]
    image = _load_image(getattr(args, "in"))
    send_image(host, port, profile, image)
    print(f"sent {image.width}x{image.height} image to {args.addr} as {args.profile}")
    return 0


def cmd_exchange_run(args, parser) -> int:
    image = _load_image(getattr(args, "in"))
    report = run_exchange(
        PROFILES[args.sender], PROFILES[args.receiver], image, transport=args.transport
    )
    print(report.summary())
    if args.out:
        Path(args.out).write_bytes(write_pgm(report.candidate))
        _write_manifest(args)
    return 0


def cmd_testimage(args, parser) -> int:
    image = synthetic_test_image(args.width, args.height)
    Path(args.out).write_bytes(write_pgm(image))
    _write_manifest(args)
    print(f"wrote {args.width}x{args.height} test image to {args.out}")
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubicrypt",
        description="Chaos-based XOR image encryption and reproducibility lab",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("simulate", help="iterate the map and write the orbit CSV")
    _add_map_flags(p, ("--scheme", EvaluationScheme.E1))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate, command_parser=p)

    p = subs.add_parser("lbe", help="lower bound error between two evaluation schemes")
    _add_map_flags(p, ("--scheme-a", EvaluationScheme.E1), ("--scheme-b", EvaluationScheme.E2))
    p.add_argument("--out", required=True)
    p.add_argument("--report", action="store_true", help="print the Lyapunov fit as JSON")
    p.set_defaults(func=cmd_lbe, command_parser=p)

    p = subs.add_parser("keygen", help="write raw keystream bytes")
    _add_key_flags(p)
    p.add_argument("--count", type=int, default=65536, help="bytes to generate")
    p.add_argument("--hex", action="store_true", help="write hex text instead of raw bytes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_keygen, command_parser=p)

    for name, help_text in (
        ("encrypt", "XOR a PGM image with a generated key matrix"),
        ("decrypt", "inverse of encrypt (same XOR)"),
    ):
        p = subs.add_parser(name, help=help_text)
        p.add_argument("--in", required=True)
        p.add_argument("--out", required=True)
        _add_key_flags(p)
        p.set_defaults(func=cmd_xor, command_parser=p)

    p = subs.add_parser("entropy", help="Shannon entropy of a PGM image or raw bytes")
    p.add_argument("--in", required=True)
    p.add_argument("--raw", action="store_true", help="treat input as raw bytes, not PGM")
    p.set_defaults(func=cmd_entropy, command_parser=p)

    p = subs.add_parser("histogram", help="256-bin histogram CSV of a PGM image or raw bytes")
    p.add_argument("--in", required=True)
    p.add_argument("--raw", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_histogram, command_parser=p)

    p = subs.add_parser("exchange", help="two-device wire-protocol transfer")
    ex = p.add_subparsers(dest="exchange_command", required=True)

    q = ex.add_parser("serve", help="receive one encrypted frame and decrypt it")
    q.add_argument("--addr", required=True, help="host:port to listen on")
    q.add_argument("--profile", required=True, choices=sorted(PROFILES))
    q.add_argument("--out", required=True)
    q.add_argument("--expected", help="plaintext PGM to score the candidate against")
    q.set_defaults(func=cmd_exchange_serve, command_parser=q)

    q = ex.add_parser("send", help="encrypt an image and push one frame")
    q.add_argument("--addr", required=True, help="host:port to connect to")
    q.add_argument("--profile", required=True, choices=sorted(PROFILES))
    q.add_argument("--in", required=True)
    q.set_defaults(func=cmd_exchange_send, command_parser=q)

    q = ex.add_parser("run", help="in-process sender->receiver exchange with a score")
    q.add_argument("--in", required=True)
    q.add_argument("--sender", required=True, choices=sorted(PROFILES))
    q.add_argument("--receiver", required=True, choices=sorted(PROFILES))
    q.add_argument("--transport", choices=("memory", "tcp"), default="memory")
    q.add_argument("--out")
    q.set_defaults(func=cmd_exchange_run, command_parser=q)

    p = subs.add_parser("testimage", help="write the bundled synthetic test image")
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_testimage, command_parser=p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (OrbitDivergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
