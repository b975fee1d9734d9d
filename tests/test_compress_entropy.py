"""Tests for the bitstream and Huffman entropy-coding stages."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import huffman, mgard, sz, zfp
from repro.compress.base import ErrorBoundMode
from repro.compress.bitstream import _pack_codes_reference, pack_codes
from repro.compress.huffman import (
    _ESCAPE,
    _MAX_CODE_LENGTH,
    _build_decode_tables,
    _canonical_codes_reference,
    _decode_reference,
    _decode_tables_for_header,
    _encode_reference,
    huffman_decode,
    huffman_encode,
)
from repro.compress.mgard import MGARDCompressor
from repro.compress.sz import SZCompressor
from repro.compress.zfp import ZFPCompressor
from repro.datasets import make_h2_combustion
from repro.exceptions import CompressionError


# -- bitstream ------------------------------------------------------------------


def _unpack(payload: bytes, lengths) -> list[int]:
    """Read codes of the given lengths back out of a packed payload."""
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    return [
        int("".join(map(str, bits[start : start + length])), 2)
        for start, length in zip(starts, lengths)
    ]


def test_pack_codes_roundtrip_via_unpackbits():
    values = np.array([0b101, 0b1, 0b11110000], dtype=np.uint64)
    lengths = np.array([3, 1, 8])
    payload, total_bits = pack_codes(values, lengths)
    assert total_bits == 12
    assert _unpack(payload, lengths) == [0b101, 0b1, 0b11110000]


def test_pack_codes_empty():
    payload, bits = pack_codes(np.array([], dtype=np.uint64), np.array([], dtype=np.int64))
    assert payload == b"" and bits == 0


def test_pack_codes_rejects_mismatched_shapes():
    with pytest.raises(CompressionError):
        pack_codes(np.zeros(3, dtype=np.uint64), np.ones(2, dtype=np.int64))


def test_pack_codes_rejects_bad_lengths():
    with pytest.raises(CompressionError):
        pack_codes(np.zeros(1, dtype=np.uint64), np.array([0]))
    with pytest.raises(CompressionError):
        pack_codes(np.zeros(1, dtype=np.uint64), np.array([40]))


def test_pack_codes_zero_pads_last_byte():
    payload, bits = pack_codes(np.array([0b1], dtype=np.uint64), np.array([1]))
    assert payload == b"\x80" and bits == 1


def test_pack_codes_rejects_values_wider_than_their_length():
    with pytest.raises(CompressionError):
        pack_codes(np.array([0b100], dtype=np.uint64), np.array([2]))


def test_pack_codes_straddles_64_bit_words():
    # 31 + 31 bits leave 2 bits in the first word, so the third code
    # spills 8 bits into the second; the fifth spills 8 bits into a third.
    lengths = np.array([31, 31, 10, 32, 32])
    values = np.array([2**31 - 1, 1, 0b1011001110, 2**32 - 1, 5], dtype=np.uint64)
    payload, total_bits = pack_codes(values, lengths)
    assert total_bits == 136 and len(payload) == 17
    assert _unpack(payload, lengths) == [int(v) for v in values]
    assert (payload, total_bits) == _pack_codes_reference(values, lengths)


@given(seed=st.integers(0, 2**31 - 1), n_codes=st.integers(1, 300))
@settings(max_examples=60, deadline=None)
def test_pack_codes_matches_reference(seed, n_codes):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 33, n_codes)
    values = rng.integers(0, 2**63, n_codes, dtype=np.uint64) >> (64 - lengths).astype(
        np.uint64
    )
    packed = pack_codes(values, lengths)
    assert packed == _pack_codes_reference(values, lengths)
    assert _unpack(packed[0], lengths) == [int(v) for v in values]


# -- huffman -------------------------------------------------------------------


@given(
    data=st.lists(st.integers(-50, 50), min_size=0, max_size=500),
)
@settings(max_examples=60, deadline=None)
def test_huffman_roundtrip(data):
    symbols = np.asarray(data, dtype=np.int64)
    assert np.array_equal(huffman_decode(huffman_encode(symbols)), symbols)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_huffman_roundtrip_peaked_distribution(seed):
    rng = np.random.default_rng(seed)
    symbols = np.round(rng.standard_normal(5000) * 2).astype(np.int64)
    assert np.array_equal(huffman_decode(huffman_encode(symbols)), symbols)


def test_huffman_escape_path(rng):
    symbols = np.round(rng.standard_normal(2000) * 2).astype(np.int64)
    symbols[rng.choice(2000, 20, replace=False)] = rng.integers(-(2**29), 2**29, 20)
    blob = huffman_encode(symbols, max_alphabet=16)
    assert np.array_equal(huffman_decode(blob), symbols)


def test_huffman_compresses_skewed_data(rng):
    symbols = np.zeros(10000, dtype=np.int64)
    symbols[rng.choice(10000, 100, replace=False)] = 1
    blob = huffman_encode(symbols)
    assert len(blob) < 10000 * 8 / 20  # > 20x on a near-constant stream


def test_huffman_single_symbol():
    symbols = np.full(100, 7, dtype=np.int64)
    assert np.array_equal(huffman_decode(huffman_encode(symbols)), symbols)


def test_huffman_empty():
    assert huffman_decode(huffman_encode(np.array([], dtype=np.int64))).size == 0


def test_huffman_rejects_oversized_symbols():
    with pytest.raises(CompressionError):
        huffman_encode(np.array([2**40], dtype=np.int64))


def test_huffman_rejects_bad_magic():
    with pytest.raises(CompressionError):
        huffman_decode(b"XXXX" + b"\x00" * 16)


def test_huffman_many_distinct_lengths():
    # Exponentially skewed counts force a wide range of code lengths and
    # exercise the length-limiting fix-up.
    symbols = np.concatenate([np.full(2**i, i, dtype=np.int64) for i in range(18)])
    assert np.array_equal(huffman_decode(huffman_encode(symbols)), symbols)


# -- vectorized decoder vs retained scalar reference ----------------------------


@given(data=st.lists(st.integers(-50, 50), min_size=0, max_size=500))
@settings(max_examples=60, deadline=None)
def test_vectorized_decode_matches_reference(data):
    blob = huffman_encode(np.asarray(data, dtype=np.int64))
    assert np.array_equal(huffman_decode(blob), _decode_reference(blob))


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_vectorized_decode_matches_reference_escape_heavy(seed):
    rng = np.random.default_rng(seed)
    symbols = np.round(rng.standard_normal(1500) * 2).astype(np.int64)
    # Tiny alphabet forces a large escaped fraction with extreme values.
    symbols[rng.choice(1500, 150, replace=False)] = rng.integers(
        -(2**31) + 1, 2**31 - 1, 150
    )
    blob = huffman_encode(symbols, max_alphabet=8)
    assert np.array_equal(huffman_decode(blob), _decode_reference(blob))
    assert np.array_equal(huffman_decode(blob), symbols)


def test_vectorized_decode_matches_reference_empty():
    blob = huffman_encode(np.empty(0, dtype=np.int64))
    assert np.array_equal(huffman_decode(blob), _decode_reference(blob))


def test_vectorized_decode_matches_reference_large_peaked(rng):
    symbols = np.round(rng.normal(0.0, 0.7, size=60_000)).astype(np.int64)
    blob = huffman_encode(symbols)
    assert np.array_equal(huffman_decode(blob), _decode_reference(blob))


def test_vectorized_decode_shorter_than_one_block(rng):
    # Fewer symbols than the 16-wide expansion block exercises the tail.
    for n in (1, 2, 15, 16, 17):
        symbols = rng.integers(-3, 3, n)
        blob = huffman_encode(symbols)
        assert np.array_equal(huffman_decode(blob), symbols)
        assert np.array_equal(huffman_decode(blob), _decode_reference(blob))


# -- vectorized encoder vs retained reference -----------------------------------


def _stream(kind: str, seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.integers(-300, 300, n)
    if kind == "zipf":
        return rng.zipf(1.3, n) % 100_000 - 50
    symbols = np.round(rng.standard_normal(n) * 3).astype(np.int64)
    hits = rng.choice(n, max(1, n // 8))
    symbols[hits] = rng.integers(-(2**31) + 1, 2**31, hits.size)
    return symbols


@given(
    kind=st.sampled_from(["uniform", "zipf", "escape_heavy"]),
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 3000),
    max_alphabet=st.integers(1, 4096),
)
@settings(max_examples=120, deadline=None)
def test_encode_matches_reference(kind, seed, n, max_alphabet):
    symbols = _stream(kind, seed, n)
    blob = huffman_encode(symbols, max_alphabet)
    assert blob == _encode_reference(symbols, max_alphabet)
    assert np.array_equal(huffman_decode(blob), symbols)


@pytest.mark.parametrize("max_alphabet", [1, 2, 4096])
def test_encode_matches_reference_single_symbol(max_alphabet):
    symbols = np.full(257, -7, dtype=np.int64)
    blob = huffman_encode(symbols, max_alphabet)
    assert blob == _encode_reference(symbols, max_alphabet)
    assert np.array_equal(huffman_decode(blob), symbols)


def test_encode_matches_reference_empty():
    empty = np.empty(0, dtype=np.int64)
    assert huffman_encode(empty) == _encode_reference(empty)


def test_encode_kraft_fixup_matches_reference(monkeypatch):
    # Fibonacci counts build a maximally skewed tree: 22 symbols reach an
    # unclamped depth of 21, so the 16-bit limit needs the fix-up.
    fib = [1, 1]
    while len(fib) < 22:
        fib.append(fib[-1] + fib[-2])
    symbols = np.repeat(np.arange(22), fib)
    overfull = []
    limit = huffman._limit_lengths

    def spy(lengths, order):
        clamped = np.minimum(lengths, _MAX_CODE_LENGTH)
        overfull.append(int(np.sum(1 << (_MAX_CODE_LENGTH - clamped))) > 2**_MAX_CODE_LENGTH)
        return limit(lengths, order)

    monkeypatch.setattr(huffman, "_limit_lengths", spy)
    blob = huffman_encode(symbols)
    assert overfull == [True]
    assert blob == _encode_reference(symbols)
    entries = np.frombuffer(blob, dtype=huffman._HEADER_DTYPE, count=22, offset=10)
    assert entries["length"].max() == _MAX_CODE_LENGTH
    assert np.sum(2.0 ** -entries["length"].astype(float)) <= 1.0
    assert np.array_equal(huffman_decode(blob), symbols)


#: the codec-sweep benchmark's ten codec x bound cells, at the input
#: tolerances its planner picks for the h2combustion model
CODEC_CELLS = (
    *(
        (codec, mode, tolerance)
        for codec in (SZCompressor, MGARDCompressor)
        for mode, tolerance in (
            (ErrorBoundMode.ABS, 6.1e-4),
            (ErrorBoundMode.ABS, 9.3e-5),
            (ErrorBoundMode.L2_ABS, 1.84e-3),
            (ErrorBoundMode.L2_ABS, 2.79e-4),
        )
    ),
    (ZFPCompressor, ErrorBoundMode.ABS, 6.1e-4),
    (ZFPCompressor, ErrorBoundMode.ABS, 9.3e-5),
)


@pytest.fixture(scope="module")
def codec_streams():
    """The symbol streams SZ, MGARD and ZFP entropy-code for one snapshot."""
    fields = make_h2_combustion(grid=128, rng=np.random.default_rng([1, 0])).fields
    streams = []

    def capture(symbols, max_alphabet=4096):
        streams.append((np.array(symbols), max_alphabet))
        return huffman_encode(symbols, max_alphabet=max_alphabet)

    with pytest.MonkeyPatch.context() as patch:
        for module in (sz, mgard, zfp):
            patch.setattr(module, "huffman_encode", capture)
        for codec, mode, tolerance in CODEC_CELLS:
            codec().compress(fields, tolerance, mode)
    return streams


def test_encode_matches_reference_on_codec_streams(codec_streams):
    assert len(codec_streams) == len(CODEC_CELLS)
    # real cells escape: thousands of distinct values past the 4096 cap
    assert max(np.unique(symbols).size for symbols, __ in codec_streams) > 4096
    for symbols, max_alphabet in codec_streams:
        assert huffman_encode(symbols, max_alphabet) == _encode_reference(
            symbols, max_alphabet
        )


def test_huffman_rejects_int32_extremes():
    for value in (-(2**31), 2**31):
        with pytest.raises(CompressionError):
            huffman_encode(np.array([0, value], dtype=np.int64))


# -- max_alphabet validation ----------------------------------------------------


@pytest.mark.parametrize("max_alphabet", [0, -3, 65536])
def test_huffman_rejects_out_of_range_alphabet(max_alphabet):
    with pytest.raises(CompressionError, match="max_alphabet"):
        huffman_encode(np.arange(1000) % 100, max_alphabet=max_alphabet)


def test_huffman_rejects_alphabet_too_large_to_length_limit():
    # 70000 symbols cannot all get 16-bit codes; the cap is refused
    # before any coding starts instead of looping in the fix-up.
    with pytest.raises(CompressionError, match="max_alphabet"):
        huffman_encode(np.arange(70_000), max_alphabet=100_000)


def test_huffman_accepts_alphabet_bounds():
    symbols = np.arange(3000) % 700
    for max_alphabet in (1, 65535):
        blob = huffman_encode(symbols, max_alphabet=max_alphabet)
        assert np.array_equal(huffman_decode(blob), symbols)


@pytest.mark.parametrize("codec", [SZCompressor, ZFPCompressor, MGARDCompressor])
@pytest.mark.parametrize("max_alphabet", [0, -3, 100_000])
def test_codecs_reject_out_of_range_alphabet(codec, max_alphabet):
    with pytest.raises(CompressionError, match="max_alphabet"):
        codec(max_alphabet=max_alphabet)


# -- decode tables --------------------------------------------------------------


def _decode_tables_reference(lengths: dict[int, int]):
    """The slice-loop table builder the vectorized one replaced."""
    codes = _canonical_codes_reference(lengths)
    table_symbol = np.zeros(2**_MAX_CODE_LENGTH, dtype=np.int32)
    advance = np.zeros(2**_MAX_CODE_LENGTH, dtype=np.int32)
    escape_length = None
    for symbol, (code, length) in codes.items():
        start = code << (_MAX_CODE_LENGTH - length)
        end = (code + 1) << (_MAX_CODE_LENGTH - length)
        table_symbol[start:end] = symbol
        if symbol == _ESCAPE:
            escape_length = length
            advance[start:end] = length + 32
        else:
            advance[start:end] = length
    return table_symbol, advance, escape_length


@pytest.mark.parametrize(
    "symbols, max_alphabet",
    [
        (np.full(40, 3), 4096),
        (np.arange(5000) % 777, 4096),
        (np.repeat(np.arange(25), np.round(1.6 ** np.arange(25)).astype(int)), 4096),
        (_stream("escape_heavy", 7, 4000), 16),
        (_stream("zipf", 3, 20_000), 4096),
    ],
)
def test_decode_tables_match_reference(symbols, max_alphabet):
    blob = huffman_encode(symbols, max_alphabet)
    n_alphabet = int.from_bytes(blob[8:10], "little")
    header = blob[10 : 10 + 5 * n_alphabet]
    lengths = {}
    for offset in range(0, len(header), 5):
        lengths[int.from_bytes(header[offset : offset + 4], "little", signed=True)] = header[
            offset + 4
        ]
    expected = _decode_tables_reference(lengths)
    for tables in (
        _decode_tables_for_header(header, n_alphabet),
        _build_decode_tables(
            np.array(list(lengths), dtype=np.int64), np.array(list(lengths.values()))
        ),
    ):
        assert np.array_equal(tables[0], expected[0])
        assert np.array_equal(tables[1], expected[1])
        assert tables[2] == expected[2]


@pytest.mark.parametrize(
    "lengths", [[1, 1, 1], [0, 1], [17, 1], []], ids=["kraft", "zero", "long", "empty"]
)
def test_decode_tables_reject_invalid_lengths(lengths):
    with pytest.raises(CompressionError):
        _build_decode_tables(
            np.arange(len(lengths), dtype=np.int64), np.array(lengths, dtype=np.int64)
        )
