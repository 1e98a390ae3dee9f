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


# Whitespace and "#" comments, then one header token and at most one
# whitespace byte after it (exactly one separates the header from a P5
# payload). A comment must end at a newline or at the end of the input:
# a bare "#[^\n]*" lets a failed match backtrack into the comment and
# return its tail as a token.
_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]+)\s?")
# In a P2 body a comment runs to the end of its line, "\r" included.
_BODY_COMMENT = re.compile(rb"#[^\r\n]*")


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
        try:
            values = list(map(int, _BODY_COMMENT.sub(b"", data[offset:]).split()))
        except ValueError:
            raise PgmError("non-numeric P2 pixel token") from None
        if len(values) < needed:
            raise PgmError(f"truncated payload: {len(values)} of {needed} values")
        if len(values) > needed:
            raise PgmError(f"{len(values) - needed} trailing values after payload")
        if min(values) < 0 or max(values) > MAXVAL:
            raise PgmError("P2 pixel value outside [0, 255]")
        flat = np.array(values, dtype=np.uint8)
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
