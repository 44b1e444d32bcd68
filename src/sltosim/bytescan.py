"""The matrix file: its format, its reader and its line writer.

A matrix file is plain UTF-8 text.  Its first non-blank line, the header,
holds the matrix dimension and then, optionally, the tensor-factor
dimensions (the layout), all positive integers whose product is the
dimension.  Each following line is one row of complex entries like
``0.5-0.25j`` (lower-case ``j``) separated by blanks, parsed as
``np.loadtxt`` parses them; every entry must be finite.  The header is
checked first: a dimension above ``engine.MAX_DENSE_DIM`` is refused
before any row is read.  A file that breaks a rule is refused with a
``ConfigError`` that begins with its path.

Both directions keep the exact zeros away from the float routines.  The
writer spells each exact zero (+0.0, +0.0) as the literal ``ZERO_TOKEN``
and sends only a row's other entries through ``ENTRY_FORMAT``, one row at
a time (``format_rows``).  An exported unitary is almost all exact zeros,
and ``np.loadtxt`` would spend its time tokenizing them one field at a
time; ``parse_body`` finds the tokens with numpy instead, takes the exact
zeros as they stand and hands only the other tokens to the float parser.
``read_matrix_file`` falls back to a row-by-row parse wherever that pass
returns None.  ``matrix_lines`` yields a file's lines; opening the file
is the caller's (``cli.write_matrix_file``).
"""

from __future__ import annotations

import codecs
import math
from collections.abc import Iterator

import numpy as np

from .engine import MAX_DENSE_DIM


class ConfigError(ValueError):
    """Bad or inconsistent experiment configuration."""


#: the exact zero, (+0.0, +0.0), as a body spells it; it is also what
#: ENTRY_FORMAT makes of it, so writing it as a literal changes no byte
ZERO_TOKEN = "0+0j"

#: the format of every other entry, over its (real, imag) Python floats
ENTRY_FORMAT = "%.17g%+.17gj"


#: what each byte below 0x20 is in a row: 2 where ``str.splitlines`` breaks
#: the row, 1 for tab and 0x1f, which separate entries to ``str.split`` and
#: ``np.loadtxt`` alike, and 0 for a byte the byte pass does not take
CONTROL_BYTE_KIND = np.zeros(0x20, np.uint8)
CONTROL_BYTE_KIND[[0x09, 0x1F]] = 1
CONTROL_BYTE_KIND[[0x0A, 0x0B, 0x0C, 0x0D, 0x1C, 0x1D, 0x1E]] = 2

#: smallest entry count the byte pass takes on.  Its numpy calls cost
#: about 50 us whatever the size, and the rows' loadtxt took as long at
#: 1024 mostly-zero entries (70 us at d = 32, 21 us at d = 16).  It must
#: be at least 3: the pass reads 5 bytes from each token start
BYTE_PASS_MIN_ENTRIES = 1024

#: largest mean body bytes per entry the byte pass takes on.  An exact zero
#: takes 5 with its separator and a full-precision entry about 45; the pass
#: saves only on the zeros, and it stopped gaining at about 9 bytes per
#: entry (one entry in ten full-precision) at d = 64, 162 and 288
BYTE_PASS_MAX_BYTES_PER_ENTRY = 8


def parse_body(body: str, dim: int) -> np.ndarray | None:
    """The dim x dim entries of a matrix-file body (its text after the
    header, stripped), from one vectorized pass over its bytes, or None
    where the pass cannot vouch for them.

    The tokens are found with numpy on the ASCII bytes.  Those that are
    exactly ``0+0j`` are exact zeros and skip the float parser; the rest
    are gathered into one line for a single ``np.loadtxt`` call, so every
    other spelling (``-0+0j``, ``0-0j``, ``00+0j``) parses as it would in
    its row.  None is returned for a body too small or too dense to gain,
    one with a non-ASCII byte or a control byte that is neither a row
    break nor a separator, one with a row of other than ``dim`` tokens,
    and one with a token that does not parse: the caller parses its rows.
    """
    size = dim * dim
    # size tokens and the blanks between them take at least 2 size - 1 bytes
    if (size < BYTE_PASS_MIN_ENTRIES
            or not 2 * size - 1 <= len(body) <= BYTE_PASS_MAX_BYTES_PER_ENTRY * size
            or not body.isascii()):
        return None
    raw = np.frombuffer(body.encode("ascii"), np.uint8)
    controls = np.flatnonzero(raw < 0x20)
    kind = CONTROL_BYTE_KIND[raw[controls]]
    if not kind.all():
        return None
    first_byte = raw > 0x20
    first_byte[1:] &= raw[:-1] <= 0x20
    starts = np.flatnonzero(first_byte)
    del first_byte
    # token counts before each row break: dim, 2 dim, ..., and size in all
    if starts.size != size or not np.array_equal(
            np.searchsorted(starts, controls[kind == 2]), np.arange(dim, size, dim)):
        return None
    # the tokens that are "0+0j" and a blank.  A read past the end is clipped
    # to the last byte, a token's (the body is stripped), so a token that ends
    # the body is kept and parsed, whatever it is
    zero = raw[len(ZERO_TOKEN):].take(starts, mode="clip") <= 0x20
    for shift, byte in enumerate(ZERO_TOKEN.encode("ascii")):
        zero &= raw[shift:].take(starts, mode="clip") == byte
    kept = np.flatnonzero(~zero)
    line = ""
    if kept.size:
        # each kept token with the blanks after it, up to the next token; the
        # caps keep every byte offset below 2^31 (8 bytes x 8192^2 entries)
        first = starts[kept].astype(np.int32)
        last = starts[np.minimum(kept + 1, size - 1)].astype(np.int32)
        if kept[-1] == size - 1:
            last[-1] = raw.size
        lengths = last - first
        ends = np.cumsum(lengths)
        picked = raw[np.arange(ends[-1], dtype=np.int32)
                     + np.repeat(first - (ends - lengths), lengths)]
        picked[picked < 0x20] = 0x20
        line = picked.tobytes().decode("ascii")
    del raw, starts, zero  # freed before the entries are allocated
    entries = np.zeros(size, np.complex128)
    if line:
        try:
            entries[kept] = np.loadtxt([line], dtype=np.complex128, ndmin=1, comments=None)
        except ValueError:
            return None
    return entries.reshape(dim, dim)


def format_rows(entries: np.ndarray) -> Iterator[str]:
    """The body lines of a matrix file, one per row of ``entries``, each
    built when it is asked for.

    An entry whose real and imaginary parts are both +0.0 (all 128 bits
    clear) is written ``ZERO_TOKEN``; the row's other entries go through
    ``ENTRY_FORMAT`` in one ``%`` per row, so each line is the one that
    ``ENTRY_FORMAT`` gives entry by entry, signed zeros, NaN and infinities
    included.
    """
    entries = np.asarray(entries)
    zeros = [ZERO_TOKEN] * entries.shape[1]
    for row in entries:
        row = np.ascontiguousarray(row, dtype=np.complex128)
        bits = row.view(np.uint64)
        kept = np.flatnonzero(bits[0::2] | bits[1::2])
        tokens = zeros.copy()
        for k in kept.tolist():
            tokens[k] = ENTRY_FORMAT
        yield (" ".join(tokens) + "\n") % tuple(row[kept].view(np.float64).tolist())


def matrix_lines(entries: np.ndarray, layout: tuple[int, ...] | None = None) -> Iterator[str]:
    """The lines of a matrix file holding the square matrix ``entries``: the
    header, with the factor dimensions of ``layout`` if given, then the rows
    of ``format_rows``, each built when it is asked for."""
    yield " ".join(str(d) for d in (len(entries), *(layout or ()))) + "\n"
    yield from format_rows(entries)


def _row_problem(rows: list[str], dim: int) -> str:
    """The first row of a matrix file that is ragged or does not parse."""
    for i, line in enumerate(rows):
        count = len(line.split())
        if count != dim:
            return f"row {i} has {count} entries"
        try:
            np.loadtxt([line], dtype=np.complex128, comments=None)
        except ValueError:
            return f"unparsable entry in row {i}"
    return f"rows do not form a {dim}x{dim} matrix"


def _decode_problem(path, err: UnicodeDecodeError) -> str:
    """Where the file at ``path`` stops being UTF-8, as a file offset.

    The text reader decodes in chunks, so ``err`` places the byte only
    within its chunk; the file is decoded again, a chunk at a time, up to
    the first byte that does not decode.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(1 << 16)
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as bad:
                # bad.object is the bytes the decoder held back, then the chunk
                at = offset - len(decoder.buffer) + bad.start
                return f"byte {at} (0x{bad.object[bad.start]:02x}) is not UTF-8"
            if not chunk:  # the file changed since it was read
                return str(err)
            offset += len(chunk)


def read_matrix_file(path) -> tuple[np.ndarray, tuple[int, ...] | None]:
    """The matrix and layout of a matrix file; its header is checked before any row is read."""
    try:
        with open(path, encoding="utf-8") as fh:
            header = next((line.strip() for line in fh if line.strip()), "")
            if not header:
                raise ConfigError(f"{path}: empty matrix file")
            try:
                dims = [int(tok) for tok in header.split()]
            except ValueError as err:
                raise ConfigError(f"{path}: bad header {header!r}") from err
            if min(dims) < 1:  # the dimension and every layout factor
                raise ConfigError(f"{path}: bad header {header!r}")
            dim, layout = dims[0], tuple(dims[1:]) or None
            if dim > MAX_DENSE_DIM:
                raise ConfigError(f"{path}: dimension {dim}, above the cap {MAX_DENSE_DIM}")
            if layout is not None and math.prod(layout) != dim:
                raise ConfigError(f"{path}: layout {layout} does not multiply to {dim}")
            body = fh.read().rstrip()
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: {_decode_problem(path, err)}") from err
    # the byte pass vouches for dim rows of dim entries; any other body is read by rows
    entries = parse_body(body, dim)
    if entries is None:
        rows = body.splitlines()
        if len(rows) != dim:
            raise ConfigError(f"{path}: expected {dim} rows, found {len(rows)}")
        try:
            entries = np.loadtxt(rows, dtype=np.complex128, ndmin=2, comments=None)
        except ValueError:
            entries = None
        if entries is None or entries.shape != (dim, dim):  # loadtxt skips blank rows
            raise ConfigError(f"{path}: {_row_problem(rows, dim)}")
    bad_rows = np.flatnonzero(~np.isfinite(entries).all(axis=1))
    if bad_rows.size:
        raise ConfigError(f"{path}: non-finite entry in row {bad_rows[0]}")
    return entries, layout
