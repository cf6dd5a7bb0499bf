import numpy as np
import pytest

from scriptid.netpbm import NetpbmError, read, read_binary, read_gray, write_pbm, write_pgm


def test_pgm_round_trip(tmp_path, rng):
    img = rng.integers(0, 256, (13, 29)).astype(np.uint8)
    path = str(tmp_path / "a.pgm")
    write_pgm(path, img)
    kind, back = read(path)
    assert kind == "gray"
    assert np.array_equal(back, img)


def test_pbm_raw_round_trip(tmp_path, rng):
    img = (rng.random((17, 23)) < 0.4).astype(np.uint8)
    path = str(tmp_path / "a.pbm")
    write_pbm(path, img)
    kind, back = read(path)
    assert kind == "binary"
    assert np.array_equal(back, img)


def test_pbm_plain_round_trip(tmp_path, rng):
    img = (rng.random((9, 40)) < 0.5).astype(np.uint8)
    path = str(tmp_path / "a.pbm")
    write_pbm(path, img, plain=True)
    assert np.array_equal(read_binary(path), img)


def test_plain_and_raw_agree(tmp_path, rng):
    img = (rng.random((11, 19)) < 0.6).astype(np.uint8)
    write_pbm(str(tmp_path / "raw.pbm"), img)
    write_pbm(str(tmp_path / "plain.pbm"), img, plain=True)
    assert np.array_equal(read_binary(str(tmp_path / "raw.pbm")), read_binary(str(tmp_path / "plain.pbm")))


def test_p1_packed_digits_and_comments(tmp_path):
    path = tmp_path / "packed.pbm"
    path.write_bytes(b"P1\n# comment\n3 2 # trailing\n101\n# mid comment\n010\n")
    img = read_binary(str(path))
    assert np.array_equal(img, [[1, 0, 1], [0, 1, 0]])


def test_header_comments_in_p5(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# w h\n2 #c\n2\n255\n" + bytes([1, 2, 3, 4]))
    kind, img = read(str(path))
    assert kind == "gray"
    assert np.array_equal(img, [[1, 2], [3, 4]])


def test_read_rejects_bad_inputs(tmp_path):
    cases = {
        "magic.pbm": b"P7\n2 2\n",
        "trunc.pgm": b"P5\n4 4\n255\n" + b"\x00" * 3,
        "maxval.pgm": b"P5\n2 2\n65535\n" + b"\x00" * 8,
        "dims.pbm": b"P4\n0 3\n",
        "garbage.pbm": b"hello world",
        "p1bad.pbm": b"P1\n2 2\n01x1",
    }
    for name, data in cases.items():
        p = tmp_path / name
        p.write_bytes(data)
        with pytest.raises(NetpbmError):
            read(str(p))


def test_p5_rejects_pixels_above_maxval(tmp_path):
    p = tmp_path / "over.pgm"
    p.write_bytes(b"P5 2 1 100\n" + bytes([100, 250]))
    with pytest.raises(NetpbmError, match="maxval"):
        read(str(p))
    p.write_bytes(b"P5 2 1 100\n" + bytes([0, 100]))
    assert np.array_equal(read_gray(str(p)), [[0, 100]])


def test_kind_specific_readers(tmp_path):
    write_pgm(str(tmp_path / "g.pgm"), np.zeros((2, 2), np.uint8))
    write_pbm(str(tmp_path / "b.pbm"), np.zeros((2, 2), np.uint8))
    with pytest.raises(NetpbmError):
        read_binary(str(tmp_path / "g.pgm"))
    with pytest.raises(NetpbmError):
        read_gray(str(tmp_path / "b.pbm"))


def test_write_pbm_rejects_nonbinary(tmp_path):
    with pytest.raises(NetpbmError):
        write_pbm(str(tmp_path / "x.pbm"), np.full((2, 2), 7, np.uint8))
    assert not (tmp_path / "x.pbm").exists()


def test_write_is_atomic_no_stray_temp(tmp_path, rng):
    img = (rng.random((5, 5)) < 0.5).astype(np.uint8)
    write_pbm(str(tmp_path / "ok.pbm"), img)
    names = {p.name for p in tmp_path.iterdir()}
    assert names == {"ok.pbm"}


def test_read_only_result(tmp_path):
    write_pbm(str(tmp_path / "b.pbm"), np.zeros((2, 2), np.uint8))
    img = read_binary(str(tmp_path / "b.pbm"))
    with pytest.raises(ValueError):
        img[0, 0] = 1
