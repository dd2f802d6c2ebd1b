"""Image file I/O tests: 16-bit PGM and packed PBM round trips."""

import numpy as np
import pytest

from ballast import pnm


def test_pgm16_round_trip_is_bit_exact(tmp_path, rng):
    samples = rng.integers(0, 65536, size=(13, 17)).astype(np.uint16)
    path = tmp_path / "img.pgm"
    pnm.write_pgm16(path, samples)
    back = pnm.read_pgm16(path)
    np.testing.assert_array_equal(back, samples)
    assert back.dtype == np.uint16


def test_pgm16_bytes_are_big_endian(tmp_path):
    samples = np.array([[0x0102, 0xFFFE]], dtype=np.uint16)
    path = tmp_path / "be.pgm"
    pnm.write_pgm16(path, samples)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n2 1\n65535\n")
    assert raw[-4:] == bytes([0x01, 0x02, 0xFF, 0xFE])


def test_pgm16_write_is_deterministic(tmp_path, rng):
    samples = rng.integers(0, 65536, size=(9, 9)).astype(np.uint16)
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    pnm.write_pgm16(a, samples)
    pnm.write_pgm16(b, samples)
    assert a.read_bytes() == b.read_bytes()


def test_pgm16_rejects_wrong_dtype_and_shape(tmp_path):
    with pytest.raises(ValueError):
        pnm.write_pgm16(tmp_path / "x.pgm", np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        pnm.write_pgm16(tmp_path / "x.pgm", np.zeros((4, 4), dtype=np.float64))
    with pytest.raises(ValueError):
        pnm.write_pgm16(tmp_path / "x.pgm", np.zeros(4, dtype=np.uint16))


def test_pgm16_read_validates_header(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P6\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(ValueError):
        pnm.read_pgm16(bad)
    eight_bit = tmp_path / "eight.pgm"
    eight_bit.write_bytes(b"P5\n2 2\n255\n" + b"\x00" * 4)
    with pytest.raises(ValueError):
        pnm.read_pgm16(eight_bit)
    short = tmp_path / "short.pgm"
    short.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 3)
    with pytest.raises(ValueError):
        pnm.read_pgm16(short)


def test_pgm16_header_comments_are_skipped(tmp_path):
    path = tmp_path / "comment.pgm"
    payload = np.arange(4, dtype=">u2").tobytes()
    path.write_bytes(b"P5\n# made by hand\n2 2\n# maxval next\n65535\n" + payload)
    back = pnm.read_pgm16(path)
    np.testing.assert_array_equal(back, np.arange(4, dtype=np.uint16).reshape(2, 2))


def test_pbm_round_trip_odd_width(tmp_path, rng):
    bits = rng.random((11, 13)) < 0.4  # width not a byte multiple
    path = tmp_path / "mask.pbm"
    pnm.write_pbm(path, bits)
    back = pnm.read_pbm(path)
    np.testing.assert_array_equal(back, bits)
    assert back.dtype == bool


def test_pbm_packing_is_msb_first(tmp_path):
    bits = np.zeros((1, 9), dtype=bool)
    bits[0, 0] = True  # highest bit of the first byte
    bits[0, 8] = True  # highest bit of the second (padded) byte
    path = tmp_path / "msb.pbm"
    pnm.write_pbm(path, bits)
    raw = path.read_bytes()
    assert raw.startswith(b"P4\n9 1\n")
    assert raw[-2:] == bytes([0x80, 0x80])


def test_pbm_read_validates(tmp_path):
    bad = tmp_path / "bad.pbm"
    bad.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(ValueError):
        pnm.read_pbm(bad)
    short = tmp_path / "short.pbm"
    short.write_bytes(b"P4\n16 2\n" + b"\x00" * 3)
    with pytest.raises(ValueError):
        pnm.read_pbm(short)
    with pytest.raises(ValueError):
        pnm.write_pbm(tmp_path / "x.pbm", np.zeros(4, dtype=bool))


def test_quantize_endpoints_and_clipping():
    img = np.array([[0.0, 0.5], [1.0, 2.0]])
    q = pnm.quantize_u16(img, 0.0, 1.0)
    assert q.dtype == np.uint16
    assert q[0, 0] == 0
    assert q[1, 0] == 65535
    assert q[1, 1] == 65535  # clipped, not wrapped
    assert q[0, 1] == round(0.5 * 65535)


def test_quantize_constant_image_maps_to_zero():
    q = pnm.quantize_u16(np.full((3, 3), 7.0), 7.0, 7.0)
    assert np.all(q == 0)


def test_quantize_rejects_non_finite():
    with pytest.raises(ValueError):
        pnm.quantize_u16(np.array([[np.nan, 1.0]]), 0.0, 1.0)
