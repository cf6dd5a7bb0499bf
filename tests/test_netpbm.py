import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import loop_read_p1_raster, loop_write_p1

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
        "magic.pbm": (b"P7\n2 2\n", "unsupported format"),
        "magic-only.pbm": (b"P7", "unsupported format"),
        "trunc.pgm": (b"P5\n4 4\n255\n" + b"\x00" * 3, "truncated raster"),
        "maxval.pgm": (b"P5\n2 2\n65535\n" + b"\x00" * 8, "unsupported maxval"),
        "dims.pbm": (b"P4\n0 3\n", "bad dimensions 0x3"),
        # a P5 header is read through maxval before the dimensions are checked
        "dims-no-maxval.pgm": (b"P5\n0 3\n", "unexpected end of header"),
        "dims-p1.pbm": (b"P1\n3 0\n", "bad dimensions 3x0"),
        "width.pbm": (b"P4\nx 3\n", "expected integer"),
        "garbage.pbm": (b"hello world", "bad magic"),
        "p1bad.pbm": (b"P1\n2 2\n01x1", "bad P1 raster byte"),
    }
    for name, (data, message) in cases.items():
        p = tmp_path / name
        p.write_bytes(data)
        with pytest.raises(NetpbmError, match=message):
            read(str(p))


@pytest.mark.parametrize(
    "data, message",
    [
        (b"P", "not a Netpbm file"),
        (b"P4\n8 2\n\x00", "truncated raster"),
        (b"P5\n2 2\n255", "missing whitespace before raster"),
        (b"P5\n2 2", "unexpected end of header"),
        (b"P4\n8 -2\n", "expected integer, got b'-2'"),
    ],
    ids=["one-byte", "p4-truncated", "p5-no-raster-separator", "header-end", "not-an-integer"],
)
def test_read_errors_name_the_file(tmp_path, data, message):
    p = tmp_path / "bad.pnm"
    p.write_bytes(data)
    with pytest.raises(NetpbmError, match=f"^{re.escape(f'{p}: {message}')}$"):
        read(str(p))


_WS = (b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c")
whitespace = st.sampled_from(_WS)
comments = st.binary(max_size=6).map(lambda b: b"#" + b.replace(b"\n", b"") + b"\n")
# whitespace and comments in any order, led by at least one whitespace byte
separators = st.tuples(whitespace, st.lists(st.one_of(whitespace, comments), max_size=3)).map(
    lambda t: t[0] + b"".join(t[1])
)


@settings(max_examples=150, deadline=None)
@given(magic=st.sampled_from((b"P1", b"P4", b"P5")), data=st.data())
def test_header_layouts_read_back(tmp_path_factory, magic, data):
    h = data.draw(st.integers(1, 12))
    w = data.draw(st.integers(1, 12))
    maxval = data.draw(st.integers(1, 255)) if magic == b"P5" else 1
    img = data.draw(hnp.arrays(np.uint8, (h, w), elements=st.integers(0, maxval)))
    fields = [magic, str(w).encode(), str(h).encode()]
    if magic == b"P5":
        fields.append(str(maxval).encode())
    out = fields[0]
    for field in fields[1:]:
        out += data.draw(separators) + field
    if magic == b"P1":
        # digits may be packed or spread out, with comments between them
        for i, v in enumerate(img.ravel()):
            sep = separators if i == 0 else st.one_of(separators, st.just(b""))
            out += data.draw(sep) + b"01"[v : v + 1]
        out += data.draw(st.one_of(separators, st.just(b"")))
    else:
        # exactly one whitespace byte ends the header of a raw format
        raster = np.packbits(img, axis=1) if magic == b"P4" else img
        out += data.draw(whitespace) + raster.tobytes()
    path = tmp_path_factory.mktemp("layout") / "img.pnm"
    path.write_bytes(out)
    kind, back = read(str(path))
    assert kind == ("gray" if magic == b"P5" else "binary")
    assert back.dtype == np.uint8
    assert np.array_equal(back, img)


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


# each value wraps or truncates to a valid pixel under a uint8 cast
@pytest.mark.parametrize(
    "writer, img, message",
    [
        (write_pbm, np.array([[256, 1]]), "binary image values must be 0 or 1"),
        (write_pbm, np.array([[0.7, 1.0]]), "binary image must be integer-valued, got float64"),
        (write_pgm, np.array([[300, -1]]), "grayscale intensities must lie in 0..255"),
    ],
    ids=["pbm-256", "pbm-float", "pgm-out-of-range"],
)
def test_writers_validate_before_casting(tmp_path, writer, img, message):
    path = tmp_path / "x.pnm"
    with pytest.raises(NetpbmError) as exc:
        writer(str(path), img)
    assert str(exc.value) == message
    assert not path.exists()


# separators a P1 raster may hold before a digit; comments may hold digits
_P1_FILLERS = (b"", b"", b" ", b"\n", b"\t", b"\r\n", b"\x0b", b"\x0c ", b"#\n", b"# 0 1#x\n")
_P1_BAD = b"x2-\x00\xff"


@settings(max_examples=200, deadline=None)
@given(
    h=st.integers(1, 64),
    w=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    bad=st.sampled_from((None, "before", "after")),
    truncate=st.booleans(),
)
def test_p1_codec_matches_byte_loop_oracle(tmp_path_factory, h, w, seed, bad, truncate):
    rng = np.random.default_rng(seed)
    img = (rng.random((h, w)) < 0.5).astype(np.uint8)
    path = tmp_path_factory.mktemp("p1") / "img.pbm"
    write_pbm(str(path), img, plain=True)
    assert path.read_bytes() == loop_write_p1(img)

    # every digit led by filler, then a tail; a bad byte goes in just
    # before a random digit (with a second one later, which must lose) or
    # after the last one
    fill = rng.integers(len(_P1_FILLERS), size=h * w + 1)
    pieces = [_P1_FILLERS[f] + b"01"[v : v + 1] for f, v in zip(fill, img.ravel())]
    pieces.append(_P1_FILLERS[fill[-1]])
    bad_byte = _P1_BAD[rng.integers(len(_P1_BAD)) :][:1]
    if bad == "before":
        k = int(rng.integers(h * w))
        pieces[k] = bad_byte + pieces[k]
        k2 = int(rng.integers(k, h * w))
        pieces[k2] += b"\xfe"
    elif bad == "after":
        pieces[-1] += bad_byte + b"1"
    raster = b"".join(pieces)
    if truncate:  # cut somewhere before the last digit
        raster = raster[: int(rng.integers(len(raster) - len(pieces[-1])))]
    path.write_bytes(f"P1\n{w} {h}\n".encode() + raster)

    try:
        want = loop_read_p1_raster(raster, w, h)
    except ValueError as exc:
        with pytest.raises(NetpbmError) as got:
            read(str(path))
        assert str(got.value) == f"{path}: {exc}"
        if bad == "before" and not truncate:
            assert "bad P1 raster byte" in str(exc)
        if bad is None:
            assert str(exc) == "truncated raster"
    else:
        assert not truncate and bad != "before"
        kind, back = read(str(path))
        assert kind == "binary" and back.dtype == np.uint8
        assert np.array_equal(back, want) and np.array_equal(back, img)


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
