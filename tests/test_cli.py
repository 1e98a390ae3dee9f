import argparse
import json
import os
import socket
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from cubicrypt import cli
from cubicrypt.cli import build_parser, main, replay_argv
from cubicrypt.pgmio import read_pgm, read_series_csv


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def image_file(tmp_path, test_image):
    from cubicrypt.pgmio import write_pgm

    path = tmp_path / "test.pgm"
    path.write_bytes(write_pgm(test_image))
    return path


# ---------------------------------------------------------------- simulate


def test_simulate_writes_orbit(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    assert run("simulate", "--iters", "100", "--out", str(out)) == 0
    lines = out.read_bytes().decode().splitlines()
    assert len(lines) == 102  # header + 101 samples
    assert lines[0] == "n,x"
    assert lines[1] == "0,0.1"
    values = read_series_csv(out.read_bytes())
    assert len(values) == 101
    assert values[0] == 0.1


def test_simulate_zero_x0(tmp_path):
    out = tmp_path / "orbit.csv"
    assert run("simulate", "--x0", "0", "--iters", "20", "--out", str(out)) == 0
    assert np.all(read_series_csv(out.read_bytes()) == 0.0)


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["simulate", "--iters", "50", "--scheme", "e3"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_manifest_replay(tmp_path):
    out = tmp_path / "orbit.csv"
    assert run("simulate", "--iters", "30", "--out", str(out)) == 0
    first = out.read_bytes()
    manifest = json.loads((tmp_path / "orbit.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["parameters"]["x0"] == 0.1
    out.unlink()
    assert main(replay_argv(str(tmp_path / "orbit.csv.manifest.json"))) == 0
    assert out.read_bytes() == first


def test_simulate_divergent_orbit_fails(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    code = run("simulate", "--r", "9.0", "--x0", "0.9", "--iters", "50", "--out", str(out))
    assert code == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- lbe


def test_lbe_report(tmp_path, capsys):
    out = tmp_path / "lbe.csv"
    assert run("lbe", "--iters", "100", "--out", str(out), "--report") == 0
    stdout = capsys.readouterr().out
    report = json.loads(stdout.splitlines()[-1])
    assert report["lambda"] > 0.3
    assert report["first_n_at_1e-3"] <= 100
    delta = read_series_csv(out.read_bytes())
    assert delta[0] == 0.0


@pytest.mark.parametrize("flags", [["--scheme-b", "e4"], ["--iters", "2"]], ids=["e1-e4", "iters-2"])
def test_lbe_report_with_undefined_fit_prints_nulls(tmp_path, capsys, flags):
    out = tmp_path / "lbe.csv"
    assert run("lbe", "--out", str(out), "--report", *flags) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    report = json.loads(captured.out.splitlines()[-1])
    keys = ("lambda", "intercept", "fit_range", "r_squared", "n_points", "first_n_at_1e-3")
    assert report == dict.fromkeys(keys)
    # the manifest's own argv replays to the same success
    assert main(replay_argv(str(out) + ".manifest.json")) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == report


def test_lbe_identical_schemes(tmp_path):
    out = tmp_path / "lbe.csv"
    assert run("lbe", "--scheme-a", "e2", "--scheme-b", "e2", "--iters", "50", "--out", str(out)) == 0
    assert np.all(read_series_csv(out.read_bytes()) == 0.0)


# ---------------------------------------------------------------- keygen


def test_keygen_raw_and_hex(tmp_path):
    raw = tmp_path / "key.bin"
    hexed = tmp_path / "key.hex"
    assert run("keygen", "--count", "128", "--out", str(raw)) == 0
    assert run("keygen", "--count", "128", "--hex", "--out", str(hexed)) == 0
    payload = raw.read_bytes()
    assert len(payload) == 128
    assert max(payload) <= 254
    assert bytes.fromhex(hexed.read_text().strip()) == payload


def test_keygen_profile_equals_explicit_flags(tmp_path):
    a, b = tmp_path / "a.bin", tmp_path / "b.bin"
    assert run("keygen", "--profile", "device2", "--count", "256", "--out", str(a)) == 0
    assert run(
        "keygen", "--scheme", "e2", "--x0", "0.1", "--r", "3.6",
        "--iters", "70000", "--count", "256", "--out", str(b),
    ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_keygen_multiseed_flags(tmp_path):
    out = tmp_path / "k.bin"
    assert run(
        "keygen", "--seeds", "3", "--iters-per-seed", "8",
        "--r", "3.61", "--damping", "0.89", "--count", "24", "--out", str(out),
    ) == 0
    manifest = json.loads((tmp_path / "k.bin.manifest.json").read_text())
    assert manifest["parameters"]["mode"] == "multiseed"
    assert manifest["parameters"]["seed_count"] == 3


def test_keygen_profile_conflicts_with_flags(tmp_path):
    with pytest.raises(SystemExit) as err:
        run("keygen", "--profile", "device1", "--r", "3.7", "--out", str(tmp_path / "k"))
    assert err.value.code == 2


_SINGLE_VS_MULTI = "--x0/--iters are single-orbit flags; multi-seed uses --seeds and --iters-per-seed"


# Messages recorded before the key flags were declared from one table.
KEY_FLAG_USAGE_ERRORS = [
    (["keygen", "--profile", "device1", "--r", "3.7"], "--profile cannot be combined with --r"),
    (["keygen", "--profile", "device1", "--seeds", "3", "--r", "3.7"],
     "--profile cannot be combined with --r, --seeds"),
    (["keygen", "--profile", "device1", "--iters-per-seed", "3", "--x0", "0.2"],
     "--profile cannot be combined with --x0, --iters-per-seed"),
    (["encrypt", "--in", "img.pgm", "--profile", "device1", "--seeds", "2"],
     "--profile cannot be combined with --seeds"),
    (["keygen", "--seeds", "3", "--x0", "0.2"], _SINGLE_VS_MULTI),
    (["keygen", "--iters-per-seed", "3", "--iters", "5"], _SINGLE_VS_MULTI),
    (["keygen", "--seeds", "0"], "seed_count and iterations_per_seed must be >= 1"),
    (["keygen", "--iters-per-seed", "0"], "seed_count and iterations_per_seed must be >= 1"),
    (["keygen", "--iters", "-1"], "iterations must be >= 0"),
]


@pytest.mark.parametrize(
    "argv, message", KEY_FLAG_USAGE_ERRORS, ids=[" ".join(argv) for argv, _ in KEY_FLAG_USAGE_ERRORS]
)
def test_key_flag_usage_errors(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        run(*argv, "--out", "k")
    assert err.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"cubicrypt: error: {message}"
    assert list(tmp_path.iterdir()) == []


def test_keygen_count_too_large(tmp_path, capsys):
    code = run("keygen", "--iters", "10", "--count", "11", "--out", str(tmp_path / "k"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- encrypt/decrypt


def test_encrypt_decrypt_round_trip(tmp_path, image_file):
    enc = tmp_path / "enc.pgm"
    dec = tmp_path / "dec.pgm"
    assert run("encrypt", "--in", str(image_file), "--out", str(enc), "--profile", "device3") == 0
    assert run("decrypt", "--in", str(enc), "--out", str(dec), "--profile", "device3") == 0
    assert dec.read_bytes() == image_file.read_bytes()
    assert enc.read_bytes() != image_file.read_bytes()


def test_outputs_replace_longer_files_and_follow_symlinks(tmp_path, image_file):
    fresh = tmp_path / "fresh.pgm"
    assert run("encrypt", "--in", str(image_file), "--out", str(fresh), "--profile", "device3") == 0
    target = tmp_path / "target.pgm"
    stale = b"#" * (3 * len(fresh.read_bytes()))
    target.write_bytes(stale)
    link = tmp_path / "link.pgm"
    link.symlink_to(target)
    Path(str(link) + ".manifest.json").write_bytes(stale)
    assert run("encrypt", "--in", str(image_file), "--out", str(link), "--profile", "device3") == 0
    assert link.is_symlink()
    assert target.read_bytes() == fresh.read_bytes()
    manifest = json.loads(Path(str(link) + ".manifest.json").read_bytes())
    assert manifest["outputs"] == [str(link)]


def test_write_file_to_a_device_skips_the_cut():
    cli._write_file(os.devnull, b"discarded")


def test_encrypt_missing_input(tmp_path, capsys):
    code = run("encrypt", "--in", str(tmp_path / "nope.pgm"), "--out", str(tmp_path / "e.pgm"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_encrypt_rejects_bad_pgm(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"JPEG not really")
    code = run("encrypt", "--in", str(bad), "--out", str(tmp_path / "e.pgm"))
    assert code == 1
    assert "magic" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        run("encrypt")  # missing required flags
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run("simulate", "--scheme", "e9", "--out", "x.csv")
    assert err.value.code == 2


# ---------------------------------------------------------------- entropy/histogram


def test_entropy_of_encrypted(tmp_path, image_file, capsys):
    enc = tmp_path / "enc.pgm"
    run("encrypt", "--in", str(image_file), "--out", str(enc), "--profile", "device1")
    capsys.readouterr()
    assert run("entropy", "--in", str(enc)) == 0
    out = capsys.readouterr().out
    h_norm = float(out.split("h_norm=")[1])
    assert h_norm >= 0.95


def test_entropy_raw_mode(tmp_path, capsys):
    blob = tmp_path / "data.bin"
    blob.write_bytes(bytes(range(256)))
    assert run("entropy", "--in", str(blob), "--raw") == 0
    assert "h_norm=1.00000000" in capsys.readouterr().out


def test_histogram_csv(tmp_path, image_file, capsys):
    out = tmp_path / "hist.csv"
    assert run("histogram", "--in", str(image_file), "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "value,count"
    assert len(lines) == 257
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == 256 * 256


# ---------------------------------------------------------------- exchange


def test_exchange_run_cross_profile(image_file, capsys):
    assert run(
        "exchange", "run", "--in", str(image_file),
        "--sender", "device1", "--receiver", "device2",
    ) == 0
    out = capsys.readouterr().out
    assert "match=" in out


def test_exchange_run_writes_candidate(tmp_path, image_file):
    out = tmp_path / "cand.pgm"
    assert run(
        "exchange", "run", "--in", str(image_file),
        "--sender", "device2", "--receiver", "device2", "--out", str(out),
    ) == 0
    assert read_pgm(out.read_bytes()).width == 256


def _free_addr() -> str:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return f"127.0.0.1:{port}"


def _serve_while_sending(serve_argv, addr, profile, image_path) -> int:
    """Run ``serve_argv`` in a thread and send it one image; returns the
    serve exit code.
    """
    results = {}
    thread = threading.Thread(target=lambda: results.update(code=main(serve_argv)), daemon=True)
    thread.start()
    code = 1
    for _ in range(50):
        code = run("exchange", "send", "--addr", addr, "--profile", profile, "--in", str(image_path))
        if code == 0:
            break
        time.sleep(0.1)
    assert code == 0
    thread.join(timeout=10.0)
    return results.get("code")


def test_exchange_serve_send_tcp(tmp_path, image_file, capsys):
    addr = _free_addr()
    out = tmp_path / "recv.pgm"
    serve_argv = [
        "exchange", "serve", "--addr", addr, "--profile", "device1",
        "--out", str(out), "--expected", str(image_file),
    ]
    assert _serve_while_sending(serve_argv, addr, "device1", image_file) == 0
    assert out.read_bytes() == image_file.read_bytes()
    assert "match=1.000000" in capsys.readouterr().out


@pytest.mark.parametrize("expected_width", [256, 16])
def test_exchange_serve_expected_scores_like_mean(tmp_path, image_file, expected_width, capsys):
    expected_file = image_file
    if expected_width != 256:
        expected_file = tmp_path / "small.pgm"
        assert run("testimage", "--width", "16", "--height", "12", "--out", str(expected_file)) == 0
    addr = _free_addr()
    out = tmp_path / "recv.pgm"
    serve_argv = [
        "exchange", "serve", "--addr", addr, "--profile", "device2",
        "--out", str(out), "--expected", str(expected_file),
    ]
    capsys.readouterr()
    assert _serve_while_sending(serve_argv, addr, "device1", image_file) == 0
    candidate = read_pgm(out.read_bytes()).pixels
    expected = read_pgm(expected_file.read_bytes()).pixels
    match = float(np.mean(candidate == expected)) if candidate.shape == expected.shape else 0.0
    assert 0.0 < match < 0.05 or expected_width != 256
    assert f" match={match:.6f}\n" in capsys.readouterr().out


def test_exchange_serve_silent_peer_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("cubicrypt.exchange.SOCKET_TIMEOUT_S", 0.2)
    addr = _free_addr()
    host, port = addr.split(":")
    results = {}
    serve_argv = ["exchange", "serve", "--addr", addr, "--profile", "device1", "--out", str(tmp_path / "r.pgm")]
    thread = threading.Thread(target=lambda: results.update(code=main(serve_argv)), daemon=True)
    thread.start()
    for _ in range(50):
        try:
            peer = socket.create_connection((host, int(port)))
            break
        except ConnectionRefusedError:
            time.sleep(0.1)
    else:
        pytest.fail("exchange serve never started listening")
    with peer:
        thread.join(timeout=5.0)
    assert results.get("code") == 1
    assert capsys.readouterr().err == "error: timed out\n"
    assert not (tmp_path / "r.pgm").exists()


@pytest.mark.parametrize("port", ["65536", "99999"])
def test_exchange_addr_port_out_of_range_is_usage_error(tmp_path, port):
    with pytest.raises(SystemExit) as err:
        run("exchange", "serve", "--addr", f"127.0.0.1:{port}", "--profile", "device1",
            "--out", str(tmp_path / "r.pgm"))
    assert err.value.code == 2


# ---------------------------------------------------------------- testimage


def test_testimage_matches_library(tmp_path, test_image):
    out = tmp_path / "t.pgm"
    assert run("testimage", "--out", str(out)) == 0
    assert np.array_equal(read_pgm(out.read_bytes()).pixels, test_image.pixels)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        run("--version")
    assert err.value.code == 0
    assert "cubicrypt" in capsys.readouterr().out


# ---------------------------------------------------------------- manifests

# (argv, subcommand, parameters, inputs, canonical argv). Every case runs
# in a directory holding img.pgm, a 16x12 test image. subcommand,
# parameters and inputs were recorded before the manifest writer was
# derived from the parser; the canonical argv lists flags in each
# subcommand's declaration order.
_SINGLE_E1 = {"mode": "single", "scheme": "e1", "r": 3.6, "damping": None, "x0": 0.1,
              "iterations": 70000, "seed_count": None, "iterations_per_seed": None}
GOLDEN_MANIFESTS = [
    (
        ["simulate", "--iters", "30", "--out", "sim.csv"],
        "simulate",
        {"damping": None, "iters": 30, "r": 3.6, "scheme": "e1", "x0": 0.1},
        [],
        ["simulate", "--x0", "0.1", "--r", "3.6", "--scheme", "e1", "--iters", "30", "--out", "sim.csv"],
    ),
    (
        ["simulate", "--scheme", "e3", "--damping", "0.89", "--r", "3.61", "--x0", "0.2",
         "--iters", "40", "--out", "sim.csv"],
        "simulate",
        {"damping": 0.89, "iters": 40, "r": 3.61, "scheme": "e3", "x0": 0.2},
        [],
        ["simulate", "--x0", "0.2", "--r", "3.61", "--scheme", "e3", "--damping", "0.89",
         "--iters", "40", "--out", "sim.csv"],
    ),
    (
        ["lbe", "--report", "--damping", "0.89", "--r", "3.61", "--iters", "100", "--out", "lbe.csv"],
        "lbe",
        {"damping": 0.89, "iters": 100, "r": 3.61, "scheme_a": "e1", "scheme_b": "e2", "x0": 0.1},
        [],
        ["lbe", "--x0", "0.1", "--r", "3.61", "--scheme-a", "e1", "--scheme-b", "e2",
         "--damping", "0.89", "--iters", "100", "--out", "lbe.csv", "--report"],
    ),
    (
        ["keygen", "--iters", "500", "--x0", "0.3", "--scheme", "e2", "--count", "64", "--out", "k.bin"],
        "keygen",
        {"count": 64, "hex": False, "mode": "single", "scheme": "e2", "r": 3.6, "damping": None,
         "x0": 0.3, "iterations": 500, "seed_count": None, "iterations_per_seed": None},
        [],
        ["keygen", "--x0", "0.3", "--r", "3.6", "--scheme", "e2", "--iters", "500",
         "--count", "64", "--out", "k.bin"],
    ),
    (
        ["keygen", "--damping", "0.89", "--seeds", "3", "--iters-per-seed", "8", "--r", "3.61",
         "--count", "24", "--out", "k.bin"],
        "keygen",
        {"count": 24, "hex": False, "mode": "multiseed", "scheme": "e1", "r": 3.61, "damping": 0.89,
         "x0": None, "iterations": None, "seed_count": 3, "iterations_per_seed": 8},
        [],
        ["keygen", "--r", "3.61", "--scheme", "e1", "--damping", "0.89", "--seeds", "3",
         "--iters-per-seed", "8", "--count", "24", "--out", "k.bin"],
    ),
    (
        ["keygen", "--hex", "--profile", "device2-damped", "--count", "32", "--out", "k.hex"],
        "keygen",
        {"count": 32, "hex": True, "mode": "multiseed", "scheme": "e2", "r": 3.61, "damping": 0.89,
         "x0": None, "iterations": None, "seed_count": 70, "iterations_per_seed": 1024},
        [],
        ["keygen", "--profile", "device2-damped", "--count", "32", "--hex", "--out", "k.hex"],
    ),
    (
        ["encrypt", "--scheme", "e3", "--x0", "0.25", "--damping", "0.97", "--in", "img.pgm",
         "--iters", "1000", "--out", "enc.pgm"],
        "encrypt",
        {"width": 16, "height": 12, "mode": "single", "scheme": "e3", "r": 3.6, "damping": 0.97,
         "x0": 0.25, "iterations": 1000, "seed_count": None, "iterations_per_seed": None},
        ["img.pgm"],
        ["encrypt", "--in", "img.pgm", "--out", "enc.pgm", "--x0", "0.25", "--r", "3.6",
         "--scheme", "e3", "--damping", "0.97", "--iters", "1000"],
    ),
    (
        ["decrypt", "--in", "img.pgm", "--profile", "device1", "--out", "dec.pgm"],
        "decrypt",
        {"width": 16, "height": 12, **_SINGLE_E1},
        ["img.pgm"],
        ["decrypt", "--in", "img.pgm", "--out", "dec.pgm", "--profile", "device1"],
    ),
    (
        ["histogram", "--in", "img.pgm", "--out", "h.csv"],
        "histogram",
        {"raw": False, "total": 192},
        ["img.pgm"],
        ["histogram", "--in", "img.pgm", "--out", "h.csv"],
    ),
    (
        ["histogram", "--raw", "--in", "img.pgm", "--out", "h.csv"],
        "histogram",
        {"raw": True, "total": 205},
        ["img.pgm"],
        ["histogram", "--in", "img.pgm", "--raw", "--out", "h.csv"],
    ),
    (
        ["exchange", "run", "--in", "img.pgm", "--sender", "device1", "--receiver", "device2",
         "--out", "cand.pgm"],
        "exchange run",
        {"receiver": "device2", "sender": "device1", "transport": "memory"},
        ["img.pgm"],
        ["exchange", "run", "--in", "img.pgm", "--sender", "device1", "--receiver", "device2",
         "--transport", "memory", "--out", "cand.pgm"],
    ),
    (
        ["exchange", "run", "--transport", "tcp", "--in", "img.pgm", "--sender", "device3-damped",
         "--receiver", "device3-damped", "--out", "cand.pgm"],
        "exchange run",
        {"receiver": "device3-damped", "sender": "device3-damped", "transport": "tcp"},
        ["img.pgm"],
        ["exchange", "run", "--in", "img.pgm", "--sender", "device3-damped",
         "--receiver", "device3-damped", "--transport", "tcp", "--out", "cand.pgm"],
    ),
    (
        ["testimage", "--height", "5", "--width", "7", "--out", "t.pgm"],
        "testimage",
        {"height": 5, "width": 7},
        [],
        ["testimage", "--width", "7", "--height", "5", "--out", "t.pgm"],
    ),
]


def _check_manifest(out, subcommand, parameters, inputs, canonical, rerun=main):
    """Assert the manifest next to ``out``, then delete both files and
    check that replaying its argv with ``rerun`` rewrites them byte for
    byte.
    """
    out_path, manifest_path = Path(out), Path(out + ".manifest.json")
    manifest = json.loads(manifest_path.read_text())
    assert manifest["subcommand"] == subcommand
    assert manifest["parameters"] == parameters
    assert manifest["inputs"] == inputs
    assert manifest["outputs"] == [out]
    assert manifest["version"] == "0.1.0"
    assert manifest["argv"] == canonical
    first = out_path.read_bytes(), manifest_path.read_bytes()
    replay = replay_argv(str(manifest_path))
    out_path.unlink()
    manifest_path.unlink()
    assert rerun(replay) == 0
    assert (out_path.read_bytes(), manifest_path.read_bytes()) == first


@pytest.mark.parametrize(
    "argv, subcommand, parameters, inputs, canonical",
    GOLDEN_MANIFESTS,
    ids=[" ".join(case[0][:3]) for case in GOLDEN_MANIFESTS],
)
def test_manifest_golden_and_replay(
    tmp_path, monkeypatch, argv, subcommand, parameters, inputs, canonical
):
    monkeypatch.chdir(tmp_path)
    assert run("testimage", "--width", "16", "--height", "12", "--out", "img.pgm") == 0
    assert main(argv) == 0
    _check_manifest(argv[argv.index("--out") + 1], subcommand, parameters, inputs, canonical)


def test_manifest_golden_and_replay_exchange_serve(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run("testimage", "--width", "16", "--height", "12", "--out", "img.pgm") == 0
    addr = _free_addr()

    def serve(argv):
        return _serve_while_sending(argv, addr, "device4", "img.pgm")

    assert serve(["exchange", "serve", "--expected", "img.pgm", "--addr", addr,
                  "--profile", "device4", "--out", "recv.pgm"]) == 0
    _check_manifest(
        "recv.pgm",
        "exchange serve",
        {"addr": addr, "profile": "device4"},
        ["img.pgm"],
        ["exchange", "serve", "--addr", addr, "--profile", "device4", "--out", "recv.pgm",
         "--expected", "img.pgm"],
        rerun=serve,
    )


# ---------------------------------------------------------------- one parser per process

HELP_COMMANDS = [[], ["simulate"], ["lbe"], ["keygen"], ["encrypt"], ["decrypt"], ["entropy"],
                 ["histogram"], ["exchange"], ["exchange", "serve"], ["exchange", "send"],
                 ["exchange", "run"], ["testimage"]]


def _help_texts(capsys):
    capsys.readouterr()
    texts = []
    for words in HELP_COMMANDS:
        with pytest.raises(SystemExit) as err:
            main([*words, "--help"])
        assert err.value.code == 0
        texts.append(capsys.readouterr().out)
    return texts


def test_main_reuses_one_parser(tmp_path, monkeypatch, capsys):
    """The first main() builds the parser; later calls, usage errors
    included, reuse it and leave it as it was.
    """
    monkeypatch.chdir(tmp_path)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    first_help = _help_texts(capsys)
    assert built, "the first main() builds the parser"
    built.clear()
    for usage_error in (["encrypt", "--in", "img.pgm"],
                        ["encrypt", "--in", "img.pgm", "--out", "enc.pgm", "--profile", "device1",
                         "--seeds", "2"]):
        with pytest.raises(SystemExit) as err:
            main(usage_error)
        assert err.value.code == 2
    assert run("testimage", "--width", "16", "--height", "12", "--out", "img.pgm") == 0
    argv, subcommand, parameters, inputs, canonical = GOLDEN_MANIFESTS[6]
    assert subcommand == "encrypt"
    assert main(argv) == 0
    _check_manifest("enc.pgm", subcommand, parameters, inputs, canonical)
    assert _help_texts(capsys) == first_help
    assert built == []
