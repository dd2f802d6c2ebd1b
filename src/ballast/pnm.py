"""Minimal netpbm I/O: 16-bit binary PGM (P5) and packed binary PBM (P4).

Only what the experiment outputs need — deterministic byte-exact writes and
round-trip reads.  PGM samples are big-endian uint16 with maxval 65535; PBM
rows are packed MSB-first with zero padding to the byte boundary, 1 = black
per the format convention.
"""

import numpy as np

__all__ = ["write_pgm16", "read_pgm16", "write_pbm", "read_pbm", "quantize_u16"]

_MAXVAL = 65535


def quantize_u16(image, vmin, vmax):
    """Affine-map a float image's [vmin, vmax] to uint16 [0, 65535], clipping outliers.

    A range with ``vmax <= vmin`` maps every sample to 0.
    """
    image = np.asarray(image, dtype=np.float64)
    if not np.all(np.isfinite(image)):
        raise ValueError("image contains non-finite values")
    lo, hi = float(vmin), float(vmax)
    if hi <= lo:
        return np.zeros(image.shape, dtype=np.uint16)
    scaled = np.clip((image - lo) / (hi - lo), 0.0, 1.0) * _MAXVAL
    return np.round(scaled).astype(np.uint16)


def write_pgm16(path, samples):
    """Write a uint16 array as binary PGM, big-endian, maxval 65535."""
    samples = np.asarray(samples)
    if samples.ndim != 2:
        raise ValueError("PGM image must be 2D")
    if samples.dtype != np.uint16:
        raise ValueError(f"expected uint16 samples, got {samples.dtype}")
    h, w = samples.shape
    header = f"P5\n{w} {h}\n{_MAXVAL}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(samples.astype(">u2").tobytes())


def _read_header(fh, magic):
    if fh.read(2) != magic:
        raise ValueError(f"not a {magic.decode()} file")
    fields = []
    while len(fields) < (3 if magic == b"P5" else 2):
        line = fh.readline()
        if not line:
            raise ValueError("truncated header")
        text = line.split(b"#", 1)[0]
        fields.extend(int(tok) for tok in text.split())
    return fields


def read_pgm16(path):
    with open(path, "rb") as fh:
        w, h, maxval = _read_header(fh, b"P5")
        if maxval != _MAXVAL:
            raise ValueError(f"expected maxval {_MAXVAL}, got {maxval}")
        data = fh.read(2 * w * h)
        if len(data) != 2 * w * h:
            raise ValueError("truncated pixel data")
        return np.frombuffer(data, dtype=">u2").reshape(h, w).astype(np.uint16)


def write_pbm(path, bits):
    """Write a boolean array as binary PBM (True = black = 1 bit)."""
    bits = np.asarray(bits, dtype=bool)
    if bits.ndim != 2:
        raise ValueError("PBM image must be 2D")
    h, w = bits.shape
    header = f"P4\n{w} {h}\n".encode("ascii")
    packed = np.packbits(bits, axis=1)  # MSB-first, zero-padded rows
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(packed.tobytes())


def read_pbm(path):
    with open(path, "rb") as fh:
        w, h = _read_header(fh, b"P4")
        row_bytes = (w + 7) // 8
        data = fh.read(row_bytes * h)
        if len(data) != row_bytes * h:
            raise ValueError("truncated pixel data")
        rows = np.frombuffer(data, dtype=np.uint8).reshape(h, row_bytes)
        return np.unpackbits(rows, axis=1)[:, :w].astype(bool)
