"""Bit packing for the entropy coding stage of the codecs.

:func:`pack_codes` concatenates variable-length big-endian codes without
a per-bit or per-symbol loop.  A code of at most 32 bits touches at most
two big-endian 64-bit words: the word its first bit falls in and, when it
straddles a word boundary, the next one.  Bit offsets come from one
cumulative sum; each code is shifted into place in its first word, and
because start offsets are monotone the codes sharing a word are merged
with a single ``np.bitwise_or.reduceat``.  The straddling tails are OR-ed
into the following words (at most one tail per word).  The per-bit
packer it replaces is kept as :func:`_pack_codes_reference`; tests
assert the two are byte-identical.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import CompressionError

__all__ = ["pack_codes"]


def _check_codes(values: np.ndarray, lengths: np.ndarray) -> None:
    if values.shape != lengths.shape:
        raise CompressionError("values and lengths must have the same shape")
    if values.size and (lengths.min() < 1 or lengths.max() > 32):
        raise CompressionError("code lengths must lie in [1, 32]")


def pack_codes(values: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Concatenate variable-length big-endian codes into packed bytes.

    Parameters
    ----------
    values:
        Non-negative code values, one per symbol; each must fit in its
        length (``value < 2**length``).
    lengths:
        Bit length of each code (1..32).

    Returns
    -------
    (payload, total_bits):
        Packed bytes (zero padded to a byte boundary) and the exact number
        of meaningful bits.
    """
    values = np.asarray(values, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    _check_codes(values, lengths)
    if values.size == 0:
        return b"", 0
    if np.any(values >> lengths.astype(np.uint64)):
        raise CompressionError("code values must fit in their lengths")
    pos = np.cumsum(lengths, dtype=np.int64)
    total_bits = int(pos[-1])
    pos -= lengths  # start bit of each code
    word = pos >> 6
    pos &= 63
    pos += lengths  # end bit within the first word, 1..95
    np.subtract(64, pos, out=pos)  # left shift into the first word
    # Straddlers have a negative shift; their garbage is overwritten.
    head = values << pos.view(np.uint64)
    spill = np.flatnonzero(pos < 0)
    tail_shift = pos[spill]
    head[spill] = values[spill] >> (-tail_shift).astype(np.uint64)
    # Every word up to the last start holds a code start (a code spills
    # at most 31 bits), so the reduceat segments are exactly words 0..W-1.
    n_words = int(word[-1]) + 1
    words = np.zeros(n_words + 1, dtype=np.uint64)
    np.bitwise_or.reduceat(
        head, np.searchsorted(word, np.arange(n_words)), out=words[:n_words]
    )
    del head
    words[word[spill] + 1] |= values[spill] << (tail_shift + 64).astype(np.uint64)
    payload = words.astype(">u8").view(np.uint8)[: (total_bits + 7) // 8]
    return payload.tobytes(), total_bits


def _pack_codes_reference(values: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """The original packer, one vectorized pass per bit position.

    Kept as the ground truth for :func:`pack_codes` and used by the
    reference Huffman encoder.
    """
    values = np.asarray(values, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    _check_codes(values, lengths)
    if values.size == 0:
        return b"", 0
    ends = np.cumsum(lengths)
    starts = ends - lengths
    total_bits = int(ends[-1])
    bits = np.zeros(total_bits, dtype=np.uint8)
    max_len = int(lengths.max())
    # One vectorized pass per bit position within a code (MSB first).
    for j in range(max_len):
        active = lengths > j
        shift = (lengths[active] - 1 - j).astype(np.uint64)
        bits[starts[active] + j] = (values[active] >> shift) & np.uint64(1)
    return np.packbits(bits).tobytes(), total_bits
