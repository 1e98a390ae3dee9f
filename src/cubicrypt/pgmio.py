"""PGM image files and CSV series.

PGM (netpbm P5 binary / P2 ASCII) is used because it is lossless and
byte-exact; a lossy format would destroy XOR round-trips. Only maxval 255
is accepted: the cipher is defined over 8-bit pixels. Pixel payloads are
row-major, matching the visual layout (key matrices are filled
column-major; the two orders never mix).
"""

import re

import numpy as np

from cubicrypt.cipher import GrayImage

MAXVAL = 255


class PgmError(ValueError):
    """Malformed PGM input."""


# A "#" comment runs to the next CR or LF, in the header and in a P2 body.
_COMMENT = rb"#[^\r\n]*"
# Whitespace and comments, then one header token and at most one
# whitespace byte after it (exactly one separates the header from a P5
# payload). A comment must end at a line end or at the end of the input:
# an unanchored comment lets a failed match backtrack into it and return
# its tail as a token.
_TOKEN = re.compile(rb"(?:\s|" + _COMMENT + rb"(?:[\r\n]|\Z))*([^\s#]+)\s?")
_BODY_COMMENT = re.compile(_COMMENT)

# Byte codes for the NumPy P2 path: an ASCII digit's value, 10 for the
# six bytes bytes.split() splits on, 11 for any other byte.
_P2_CODE = np.full(256, 11, dtype=np.uint8)
_P2_CODE[np.frombuffer(b" \t\n\r\x0b\x0c", dtype=np.uint8)] = 10
_P2_CODE[np.frombuffer(b"0123456789", dtype=np.uint8)] = np.arange(10)


def _p2_digit_values(body: bytes) -> np.ndarray | None:
    """The tokens of a canonical P2 body as uint16 values, or None.

    Canonical means only ASCII digits and whitespace, with at most 3
    digits per token; any other body (comments, signs, underscores,
    other bytes, 4+ digits) gets None and is left to ``int()``.
    """
    code = _P2_CODE.take(np.frombuffer(body, dtype=np.uint8))
    if code.size and code.max() > 10:
        return None
    # Whitespace codes, three in front and one behind, keep every index
    # below in range.
    padded = np.full(code.size + 4, 10, dtype=np.uint8)
    padded[3:-1] = code
    digit = padded < 10
    if (digit[:-3] & digit[1:-2] & digit[2:-1] & digit[3:]).any():
        return None
    last = np.flatnonzero(digit[:-1] & ~digit[1:])  # each token's last digit
    units, tens, hundreds = (padded[last - k].astype(np.uint16) for k in range(3))
    has_tens = digit[last - 1]
    has_hundreds = has_tens & digit[last - 2]
    # uint16 throughout: 999 fits, and 10 and 100 keep that dtype under
    # NumPy 1.x value-based casting and NEP 50 alike.
    return units + 10 * tens * has_tens + 100 * hundreds * has_hundreds


def _check_count(count: int, needed: int) -> None:
    if count < needed:
        raise PgmError(f"truncated payload: {count} of {needed} values")
    if count > needed:
        raise PgmError(f"{count - needed} trailing values after payload")


def _p2_pixels(body: bytes, needed: int) -> np.ndarray:
    values = _p2_digit_values(body)
    if values is not None:
        _check_count(len(values), needed)
        in_range = values.max() <= MAXVAL
    else:
        try:
            values = list(map(int, _BODY_COMMENT.sub(b"", body).split()))
        except ValueError:
            raise PgmError("non-numeric P2 pixel token") from None
        _check_count(len(values), needed)
        in_range = min(values) >= 0 and max(values) <= MAXVAL
    if not in_range:
        raise PgmError("P2 pixel value outside [0, 255]")
    return np.array(values, dtype=np.uint8)


def read_pgm(data: bytes) -> GrayImage:
    """Parse P5 or P2 bytes into an image.

    Raises PgmError with a distinct message for a bad magic number, an
    unsupported maxval, or a truncated/oversized payload.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise TypeError("read_pgm expects bytes")
    data = bytes(data)
    fields: list[bytes] = []
    offset = 0
    while len(fields) < 4:
        token = _TOKEN.match(data, offset)
        if token is None:
            raise PgmError("truncated header" if fields else "bad magic number: empty input")
        fields.append(token[1])
        offset = token.end()
        if fields[0] not in (b"P5", b"P2"):
            raise PgmError(f"bad magic number {fields[0]!r}: expected P5 or P2")
    magic = fields[0]
    try:
        width, height, maxval = (int(f) for f in fields[1:])
    except ValueError:
        raise PgmError(f"non-numeric header fields {fields[1:]!r}") from None
    if width < 1 or height < 1:
        raise PgmError(f"invalid dimensions {width}x{height}")
    if maxval != MAXVAL:
        raise PgmError(f"unsupported maxval {maxval}: only {MAXVAL} (8-bit) is handled")
    needed = width * height
    if magic == b"P5":
        payload = data[offset : offset + needed]
        if len(payload) < needed:
            raise PgmError(f"truncated payload: {len(payload)} of {needed} bytes")
        if len(data) > offset + needed:
            raise PgmError(f"{len(data) - offset - needed} trailing bytes after payload")
        flat = np.frombuffer(payload, dtype=np.uint8)
    else:
        flat = _p2_pixels(data[offset:], needed)
    return GrayImage(pixels=flat.reshape((height, width)))


def write_pgm(image: GrayImage, binary: bool = True) -> bytes:
    """Canonical PGM bytes: "P5\\n<w> <h>\\n255\\n" + row-major payload,
    or the P2 ASCII equivalent with one text row per pixel row.
    """
    header = f"{'P5' if binary else 'P2'}\n{image.width} {image.height}\n{MAXVAL}\n"
    if binary:
        return header.encode("ascii") + image.tobytes()
    rows = "\n".join(" ".join(map(str, row)) for row in image.pixels.tolist())
    return (header + rows + "\n").encode("ascii")


def _format_value(v: float) -> str:
    # repr is the shortest string that parses back bit-exactly; drop the
    # redundant ".0" on integral values ("0.0" -> "0") which still
    # round-trips.
    text = repr(float(v))
    return text[:-2] if text.endswith(".0") else text


def write_series_csv(values, name: str = "value") -> bytes:
    """Index/value CSV: header "n,<name>" then one "n,value" line per entry.

    Values are formatted so that parsing them back yields bit-identical
    doubles.
    """
    lines = [f"n,{name}"]
    lines.extend(f"{i},{_format_value(v)}" for i, v in enumerate(values))
    return ("\n".join(lines) + "\n").encode("ascii")


def read_series_csv(data: bytes) -> np.ndarray:
    """Parse a series CSV back into its float64 values."""
    lines = data.decode("ascii").splitlines()
    if not lines or not lines[0].startswith("n,"):
        raise ValueError("missing series CSV header")
    return np.array([float(line.split(",", 1)[1]) for line in lines[1:]], dtype=np.float64)
