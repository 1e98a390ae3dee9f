import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cubicrypt import pgmio
from cubicrypt.cipher import GrayImage
from cubicrypt.pgmio import (
    MAXVAL,
    PgmError,
    read_pgm,
    read_series_csv,
    write_pgm,
    write_series_csv,
)


def make_image(px):
    return GrayImage(pixels=np.asarray(px, dtype=np.uint8))


# ---------------------------------------------------------------- PGM


def test_p5_canonical_header():
    img = make_image([[0, 128], [255, 7]])
    blob = write_pgm(img)
    assert blob.startswith(b"P5\n2 2\n255\n")
    assert blob[len(b"P5\n2 2\n255\n") :] == bytes([0, 128, 255, 7])


@settings(max_examples=50, deadline=None)
@given(arrays(np.uint8, (5, 7), elements=st.integers(0, 255)))
def test_p5_round_trip(px):
    img = make_image(px)
    back = read_pgm(write_pgm(img))
    assert np.array_equal(back.pixels, img.pixels)


@settings(max_examples=30, deadline=None)
@given(arrays(np.uint8, (3, 4), elements=st.integers(0, 255)))
def test_p2_round_trip(px):
    img = make_image(px)
    blob = write_pgm(img, binary=False)
    assert blob.startswith(b"P2\n4 3\n255\n")
    back = read_pgm(blob)
    assert np.array_equal(back.pixels, img.pixels)


def test_reader_skips_comments():
    blob = b"P5 # comment after magic\n# full comment line\n2 1 # dims\n255\n\x01\x02"
    img = read_pgm(blob)
    assert img.pixels.tolist() == [[1, 2]]


def test_reader_handles_single_whitespace_before_payload():
    # payload may begin with a byte that looks like whitespace
    blob = b"P5\n2 1\n255\n" + bytes([0x0A, 0x20])
    img = read_pgm(blob)
    assert img.pixels.tolist() == [[0x0A, 0x20]]


def test_bad_magic():
    with pytest.raises(PgmError, match="magic"):
        read_pgm(b"P6\n1 1\n255\n\x00")
    with pytest.raises(PgmError, match="magic"):
        read_pgm(b"")


def test_unsupported_maxval():
    with pytest.raises(PgmError, match="maxval"):
        read_pgm(b"P5\n1 1\n65535\n\x00\x00")


def test_truncated_payload():
    with pytest.raises(PgmError, match="truncated"):
        read_pgm(b"P5\n2 2\n255\n\x00\x01\x02")
    with pytest.raises(PgmError, match="truncated"):
        read_pgm(b"P2\n2 2\n255\n0 1 2")


def test_trailing_data_rejected():
    with pytest.raises(PgmError, match="trailing"):
        read_pgm(b"P5\n1 1\n255\n\x00\x01")


def test_bad_dimensions():
    with pytest.raises(PgmError, match="dimensions"):
        read_pgm(b"P5\n0 4\n255\n")


def test_p2_value_out_of_range():
    with pytest.raises(PgmError, match="outside"):
        read_pgm(b"P2\n2 1\n255\n12 999")


def test_p2_non_numeric():
    with pytest.raises(PgmError, match="token"):
        read_pgm(b"P2\n2 1\n255\n12 zebra")


# A result, or the exact PgmError message. The cases up to the P2 body
# comments were recorded at the byte-by-byte header scanner that the
# regex tokenizer replaced. A header comment now also ends at CR (the
# "header-comment-ends-at-cr" cases used to fail). The rest pin the
# NumPy P2 path: 3-digit tokens and counts there, 4+ digits on the
# reference path.
@pytest.mark.parametrize(
    "blob, expected",
    [
        pytest.param(b"#0c1\t1_0\x00 ", "bad magic number: empty input", id="comment-to-end"),
        pytest.param(b"P5 2 1 255 #x", [[35, 120]], id="p5-payload-after-one-separator"),
        pytest.param(b"P2 1 1 255#c\n7", [[7]], id="comment-after-maxval"),
        pytest.param(b"P5\x0b2\x0c1\r255\x0b\x01\x02", [[1, 2]], id="p5-vt-ff-cr"),
        pytest.param(b"P2\x0c2\x0b1\r255\r3\x0b4", [[3, 4]], id="p2-vt-ff-cr"),
        pytest.param(b"P2 2 1 255 +5 1_0", [[5, 10]], id="sign-and-underscore"),
        pytest.param(b"P2 1 1 255 " + b"9" * 20, "P2 pixel value outside [0, 255]", id="20-digits"),
        pytest.param(b"P2 1 1 255 -" + b"9" * 20, "P2 pixel value outside [0, 255]", id="minus-20-digits"),
        pytest.param(b"P2 1 1 255 \xc2\xb5", "non-numeric P2 pixel token", id="non-ascii"),
        pytest.param(b"P2 2 1 255\n3 # 99 comment\n4\n", [[3, 4]], id="p2-body-comment"),
        pytest.param(b"P2 2 1 255\n3 #c\r4", [[3, 4]], id="p2-body-comment-ends-at-cr"),
        pytest.param(b"P2 #c\r2 1 255\r3 4", [[3, 4]], id="header-comment-ends-at-cr"),
        pytest.param(b"P5 #a\rb 1 255\n\x00", "non-numeric header fields [b'b', b'1', b'255']",
                     id="header-comment-ends-at-cr-p5"),
        pytest.param(b"P2 1 1 255 007", [[7]], id="leading-zeros"),
        pytest.param(b"P2 2 1 255 0255 007", [[255, 7]], id="4-digits-leading-zero"),
        pytest.param(b"P2 2 1 255 1234 5", "P2 pixel value outside [0, 255]", id="4-digits"),
        pytest.param(b"P2 1 1 255 256", "P2 pixel value outside [0, 255]", id="256"),
        pytest.param(b"P2 2 1 255 12 999", "P2 pixel value outside [0, 255]", id="999"),
        pytest.param(b"P2 2 1 255 999", "truncated payload: 1 of 2 values", id="count-before-range"),
        pytest.param(b"P2\x0b2\x0c1\x0b255\x0c1\x0b\x0c20\x0c", [[1, 20]], id="vt-ff-only"),
        pytest.param(b"P2 3 2 255\n", "truncated payload: 0 of 6 values", id="empty-body"),
        pytest.param(b"P2 2 1 255\n1 2 3\n", "1 trailing values after payload", id="one-extra-token"),
    ],
)
def test_reader_edge_cases(blob, expected):
    if isinstance(expected, str):
        with pytest.raises(PgmError) as err:
            read_pgm(blob)
        assert str(err.value) == expected
    else:
        assert read_pgm(blob).pixels.tolist() == expected


_SEPARATORS = st.sampled_from([b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"])


@st.composite
def p2_files(draw):
    """A P2 file whose body is mostly digits and whitespace: tokens of 1-5
    digits with leading zeros, the needed count or one off it, and now and
    then a "#", "+", "_" or NUL dropped in.
    """
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    count = max(0, width * height + draw(st.sampled_from([-1, 0, 1])))
    # 0-2 digits before a value: leading zeros, or a 4- or 5-digit token
    # that the NumPy path must hand on. Most bodies get none and stay on it.
    prefix = st.text("0123456789", max_size=draw(st.sampled_from([0, 0, 2])))
    token = st.one_of(
        st.builds(operator.add, prefix, st.integers(0, MAXVAL).map(str)),
        st.text("0123456789", min_size=1, max_size=3),
    )
    body = b"".join(draw(st.lists(_SEPARATORS, max_size=2)))
    for text in draw(st.lists(token, min_size=count, max_size=count)):
        body += text.encode() + b"".join(draw(st.lists(_SEPARATORS, min_size=1, max_size=2)))
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(body)))
        body = body[:at] + draw(st.sampled_from([b"#", b"+", b"_", b"\x00"])) + body[at:]
    return f"P2 {width} {height} 255\n".encode() + body


def _outcome(blob):
    try:
        return read_pgm(blob).pixels.tolist()
    except PgmError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(p2_files())
def test_p2_numpy_path_matches_reference(blob):
    fast = _outcome(blob)
    with mock.patch.object(pgmio, "_p2_digit_values", return_value=None):
        assert _outcome(blob) == fast


def test_p5_p2_same_image(test_image):
    a = read_pgm(write_pgm(test_image, binary=True))
    b = read_pgm(write_pgm(test_image, binary=False))
    assert np.array_equal(a.pixels, b.pixels)


# ---------------------------------------------------------------- CSV


def test_series_csv_layout():
    blob = write_series_csv([0.1, -0.2564, 0.0], name="x")
    assert blob.decode("ascii").splitlines() == ["n,x", "0,0.1", "1,-0.2564", "2,0"]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=1,
        max_size=64,
    )
)
def test_series_csv_bit_exact_round_trip(values):
    arr = np.asarray(values, dtype=np.float64)
    back = read_series_csv(write_series_csv(arr))
    assert np.array_equal(arr.view(np.uint64), back.view(np.uint64))


def test_series_csv_header_required():
    with pytest.raises(ValueError):
        read_series_csv(b"0,0.1\n")
