"""Canonical Huffman coding over integer symbols.

This is the entropy stage shared by the SZ-, ZFP- and MGARD-like codecs.
Design points:

* **canonical codes** — only code lengths are stored; codes are re-derived
  on decode, keeping headers small;
* **length-limited to 16 bits** — decoding uses a single 65536-entry
  lookup table, one table hit per symbol;
* **escape symbol** — alphabets are capped (quantization codes follow a
  sharply peaked distribution); rare symbols are emitted as an escape code
  followed by a raw 32-bit value, so pathological inputs cannot blow up
  the table;
* **vectorized encode** — code lengths come from a two-queue Huffman
  construction over the sorted counts (it breaks ties exactly like a
  binary heap keyed on ``(frequency, insertion order)``), followed by a
  zlib-style length-limiting fix-up; canonical codes are assigned per
  length (RFC 1951 §3.2.2); one gather maps every distinct value to its
  code, and :func:`~repro.compress.bitstream.pack_codes` packs the codes
  into 64-bit words.  The original heap/dict encoder is retained as
  :func:`_encode_reference`; property tests assert the blobs are
  byte-identical;
* **vectorized decode** — instead of a per-symbol Python loop, the
  decoder gathers the 16-bit prefix window of *every* bit offset at once,
  turns the prefix table into a next-position function, composes it into
  a 16-symbol jump table by pointer doubling, walks block starts
  sequentially (``n/16`` cheap iterations) and expands within blocks
  columnwise.  Escapes resolve in a masked second pass.  The original
  scalar decoder is retained as :func:`_decode_reference`; property tests
  assert bit-exact agreement.

Decode tables (65536-entry symbol/advance arrays) are memoized on the
lengths header via :mod:`repro.perf.cache`, so chunked streams sharing a
code table build it once.
"""

from __future__ import annotations

import heapq
import struct

import numpy as np

from ..exceptions import CompressionError
from ..perf.cache import get_memo
from .bitstream import _pack_codes_reference, pack_codes

__all__ = ["huffman_encode", "huffman_decode"]

_MAX_CODE_LENGTH = 16
_MAGIC = b"HUF1"
_ESCAPE = -(2**31)  # sentinel symbol id for escaped values
#: the header stores the alphabet size as a uint16
_MAX_ALPHABET = 2**16 - 1
#: one header entry per coded symbol, in canonical (length, symbol) order
_HEADER_DTYPE = np.dtype([("symbol", "<i4"), ("length", "u1")])

#: slack past the end of the bit positions array: strictly larger than the
#: largest single-symbol advance (16-bit code + 32 raw bits), so composed
#: jumps from any in-stream position stay in bounds without clamping.
_PAD = 64


def check_max_alphabet(max_alphabet: int) -> int:
    """Validate an alphabet cap; the uint16 header count bounds it.

    A cap above 65535 could also leave more symbols than 16-bit codes
    can hold, so the length-limiting fix-up would never terminate.
    """
    if not 1 <= max_alphabet <= _MAX_ALPHABET:
        raise CompressionError(
            f"max_alphabet must lie in [1, {_MAX_ALPHABET}], got {max_alphabet}"
        )
    return int(max_alphabet)


def _code_lengths(counts: np.ndarray) -> np.ndarray:
    """Huffman code lengths, length-limited to 16 bits.

    ``counts`` holds one frequency per symbol in ascending symbol order.
    Two-queue construction: leaves sorted by ``(count, symbol)`` and
    merged nodes in creation order (their weights never decrease); a leaf
    wins a weight tie.  This pops nodes in exactly the order of a heap
    keyed on ``(weight, leaf index or merge counter)``.
    """
    n = counts.size
    if n == 1:
        return np.ones(1, dtype=np.int64)
    order = np.argsort(counts, kind="stable")
    leaf = counts[order].tolist()
    merged = [0] * (n - 1)
    # Node ids: leaves 0..n-1 in ``order``, merge k is node n + k.
    parent = [2 * n - 2] * (2 * n - 1)
    i = j = 0
    # The two pops per merge are written out: an inner loop costs ~70%
    # more on a 4096-symbol alphabet.
    for k in range(n - 1):
        node = n + k
        if i < n and (j == k or leaf[i] <= merged[j]):
            weight = leaf[i]
            parent[i] = node
            i += 1
        else:
            weight = merged[j]
            parent[n + j] = node
            j += 1
        if i < n and (j == k or leaf[i] <= merged[j]):
            weight += leaf[i]
            parent[i] = node
            i += 1
        else:
            weight += merged[j]
            parent[n + j] = node
            j += 1
        merged[k] = weight
    # Depth of every node by pointer jumping towards the root.
    root = 2 * n - 2
    parent = np.array(parent, dtype=np.int64)
    depth = np.ones(2 * n - 1, dtype=np.int64)
    depth[root] = 0
    while parent.min() != root:
        depth += depth[parent]
        parent = parent[parent]
    lengths = np.empty(n, dtype=np.int64)
    lengths[order] = depth[:n]
    return _limit_lengths(lengths, order)


def _limit_lengths(lengths: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Clamp to 16 bits, then restore the Kraft sum (zlib-style fix-up).

    Symbols are deepened one bit at a time, round-robin in ascending
    ``(count, symbol)`` order (``order``) so common symbols keep short
    codes, until the sum fits; each round is one vectorized pass.
    """
    lengths = np.minimum(lengths, _MAX_CODE_LENGTH)
    excess = int(np.sum(1 << (_MAX_CODE_LENGTH - lengths))) - 2**_MAX_CODE_LENGTH
    while excess > 0:
        # Deepening a symbol by one bit halves its Kraft term.
        gain = (1 << (_MAX_CODE_LENGTH - lengths[order])) >> 1
        saved = np.cumsum(gain)
        if saved[-1] >= excess:
            stop = int(np.searchsorted(saved, excess)) + 1
            lengths[order[:stop]] += gain[:stop] > 0
            break
        lengths[order] += gain > 0
        excess -= int(saved[-1])
    return lengths


def _canonical_codes(
    symbols: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical codes per RFC 1951 §3.2.2.

    Returns ``(order, codes)``: ``order`` sorts the symbols by
    ``(length, symbol)`` and ``codes[k]`` is the code of
    ``symbols[order[k]]``.
    """
    order = np.lexsort((symbols, lengths))
    ranked = lengths[order]
    bl_count = np.bincount(ranked, minlength=_MAX_CODE_LENGTH + 1)
    next_code = np.zeros(_MAX_CODE_LENGTH + 1, dtype=np.int64)
    code = 0
    for bits in range(1, _MAX_CODE_LENGTH + 1):
        code = (code + int(bl_count[bits - 1])) << 1
        next_code[bits] = code
    first = np.cumsum(bl_count) - bl_count
    codes = next_code[ranked] + (np.arange(ranked.size) - first[ranked])
    return order, codes


def huffman_encode(symbols: np.ndarray, max_alphabet: int = 4096) -> bytes:
    """Encode an integer array into a self-contained blob.

    Symbols outside the ``max_alphabet`` most frequent values are escaped
    (raw 32-bit two's complement after an escape code); ``max_alphabet``
    must lie in ``[1, 65535]``.
    """
    max_alphabet = check_max_alphabet(max_alphabet)
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    n = symbols.size
    if n == 0:
        return _MAGIC + struct.pack("<IH", 0, 0)
    unique, inverse, counts = np.unique(symbols, return_inverse=True, return_counts=True)
    if unique[0] <= -(2**31) or unique[-1] >= 2**31:
        raise CompressionError("huffman symbols must fit in int32")
    keep = np.argsort(counts)[::-1][: max_alphabet - 1]
    kept_unique = np.zeros(unique.size, dtype=bool)
    kept_unique[keep] = True
    coded = unique[kept_unique]
    coded_counts = counts[kept_unique]
    n_escaped = n - int(coded_counts.sum())
    if n_escaped > 0:
        # The escape sentinel sorts below every int32 symbol.
        coded = np.concatenate([[_ESCAPE], coded])
        coded_counts = np.concatenate([[n_escaped], coded_counts])
    lengths = _code_lengths(coded_counts)
    order, canonical = _canonical_codes(coded, lengths)
    codes = np.empty(coded.size, dtype=np.uint64)
    codes[order] = canonical

    # One gather maps every value to its code; dropped values get ESCAPE's.
    escape = int(n_escaped > 0)
    unique_code = np.full(unique.size, codes[0] if escape else 0, dtype=np.uint64)
    unique_length = np.full(unique.size, lengths[0] if escape else 0, dtype=np.int64)
    unique_code[kept_unique] = codes[escape:]
    unique_length[kept_unique] = lengths[escape:]
    values = unique_code[inverse]
    value_lengths = unique_length[inverse]

    if n_escaped > 0:
        values, value_lengths = _append_raw(
            symbols, ~kept_unique[inverse], values, value_lengths
        )

    payload, total_bits = pack_codes(values, value_lengths)
    header = np.empty(coded.size, dtype=_HEADER_DTYPE)
    header["symbol"] = coded[order]
    header["length"] = lengths[order]
    return b"".join(
        [
            _MAGIC,
            struct.pack("<IH", n, coded.size),
            header.tobytes(),
            struct.pack("<Q", total_bits),
            payload,
        ]
    )


def _append_raw(
    symbols: np.ndarray,
    escaped_mask: np.ndarray,
    values: np.ndarray,
    value_lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Insert the raw 32-bit value after each escape code."""
    escaped = np.flatnonzero(escaped_mask)
    raw_slots = escaped + np.arange(1, escaped.size + 1)
    coded_slots = np.ones(symbols.size + escaped.size, dtype=bool)
    coded_slots[raw_slots] = False
    merged_values = np.empty(coded_slots.size, dtype=np.uint64)
    merged_lengths = np.empty(coded_slots.size, dtype=np.int64)
    merged_values[coded_slots] = values
    merged_lengths[coded_slots] = value_lengths
    merged_values[raw_slots] = symbols[escaped] & 0xFFFFFFFF
    merged_lengths[raw_slots] = 32
    return merged_values, merged_lengths


def _build_decode_tables(
    symbols: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """65536-entry prefix tables: symbol, fused position advance, escape len.

    ``advance`` folds the escape's trailing 32 raw bits into the code
    length, so one gather per bit position yields the full next-position
    function regardless of escapes.
    """
    if symbols.size == 0:
        raise CompressionError("huffman header lists no symbols")
    if lengths.min() < 1 or lengths.max() > _MAX_CODE_LENGTH:
        raise CompressionError("huffman code lengths must lie in [1, 16]")
    order, codes = _canonical_codes(symbols, lengths)
    ranked = lengths[order]
    # Canonical codes tile the prefix space from 0 in (length, symbol)
    # order, so each table is one np.repeat over the code widths.
    filled = int(codes[-1] + 1) << (_MAX_CODE_LENGTH - int(ranked[-1]))
    if filled > 2**_MAX_CODE_LENGTH:
        raise CompressionError("huffman code lengths violate the Kraft inequality")
    widths = 1 << (_MAX_CODE_LENGTH - ranked)
    ranked_symbols = symbols[order]
    escaped = ranked_symbols == _ESCAPE
    table_symbol = np.zeros(2**_MAX_CODE_LENGTH, dtype=np.int32)
    advance = np.zeros(2**_MAX_CODE_LENGTH, dtype=np.int32)
    table_symbol[:filled] = np.repeat(ranked_symbols, widths)
    advance[:filled] = np.repeat(ranked + 32 * escaped, widths)
    escape_length = int(ranked[escaped][0]) if escaped.any() else None
    return table_symbol, advance, escape_length


def _decode_tables_for_header(header: bytes, n_alphabet: int):
    """Cached decode tables keyed by the raw lengths header bytes."""

    def build():
        entries = np.frombuffer(header, dtype=_HEADER_DTYPE, count=n_alphabet)
        return _build_decode_tables(
            entries["symbol"].astype(np.int64), entries["length"].astype(np.int64)
        )

    return get_memo("huffman_tables", maxsize=64).get(bytes(header), build)


def huffman_decode(blob: bytes) -> np.ndarray:
    """Decode a blob produced by :func:`huffman_encode` (vectorized)."""
    if blob[:4] != _MAGIC:
        raise CompressionError("bad huffman magic")
    n, n_alphabet = struct.unpack_from("<IH", blob, 4)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    offset = 10 + 5 * n_alphabet
    table_symbol, advance, escape_length = _decode_tables_for_header(
        blob[10:offset], n_alphabet
    )
    (total_bits,) = struct.unpack_from("<Q", blob, offset)
    offset += 8
    if total_bits >= 2**31 - _PAD:
        # int32 position arithmetic would overflow; take the scalar path.
        return _decode_reference(blob)

    payload = np.frombuffer(blob, dtype=np.uint8, offset=offset)
    if payload.size * 8 < total_bits:
        raise CompressionError("huffman payload truncated")

    # 32-bit big-endian window at every byte offset; the 16-bit prefix at
    # bit position p is then (V32[p >> 3] >> (16 - (p & 7))) & 0xFFFF.
    padded = np.concatenate(
        [payload, np.zeros(_PAD // 8 + 8, dtype=np.uint8)]
    ).astype(np.uint32)
    v32 = (
        (padded[:-3] << np.uint32(24))
        | (padded[1:-2] << np.uint32(16))
        | (padded[2:-1] << np.uint32(8))
        | padded[3:]
    )

    length = int(total_bits) + _PAD
    pos = np.arange(length, dtype=np.int32)
    # All gathers below use mode="clip": indices are in bounds by
    # construction (the absorbing state keeps composed jumps under
    # length), and skipping numpy's per-element bounds check is ~30%
    # faster; a corrupt stream clamps into the absorbing region and is
    # caught by the final alignment check.
    window = (
        np.take(v32, pos >> 3, mode="clip")
        >> (np.int32(16) - (pos & 7)).astype(np.uint32)
    ) & np.uint32(0xFFFF)

    # Next-position function over every bit offset; positions at or past
    # the stream end collapse into an absorbing overrun state so corrupt
    # walks terminate and fail the final alignment check.
    nxt = pos + np.take(advance, window, mode="clip")
    nxt[total_bits:] = total_bits + 1

    # Pointer doubling: nxt -> nxt^2 -> nxt^4 -> nxt^8 -> nxt^16, ping-
    # ponging between two buffers so each squaring is a single gather.
    jump = np.take(nxt, nxt, mode="clip")
    scratch = np.empty_like(jump)
    for __ in range(3):
        np.take(jump, jump, out=scratch, mode="clip")
        jump, scratch = scratch, jump

    # Sequential part, shrunk 16x: walk one block start per 16 symbols.
    block = 16
    n_blocks = (n + block - 1) // block
    item = jump.item
    start_list = [0] * n_blocks
    p = 0
    for k in range(n_blocks):
        start_list[k] = p
        p = item(p)

    # Within-block expansion, one row per symbol offset (contiguous
    # writes); row j holds the position of symbol 16*k + j for every k.
    rows = np.empty((block, n_blocks), dtype=np.int32)
    rows[0] = start_list
    for j in range(1, block):
        np.take(nxt, rows[j - 1], out=rows[j], mode="clip")
    positions = rows.T.reshape(-1)[:n]

    symbols = np.take(table_symbol, np.take(window, positions, mode="clip"), mode="clip")
    out = symbols.astype(np.int64)

    if escape_length is not None:
        escaped = symbols == np.int32(_ESCAPE)
        if escaped.any():
            raw_start = positions[escaped].astype(np.int64) + escape_length
            raw = (np.take(window, raw_start, mode="clip").astype(np.int64) << 16) | np.take(
                window, raw_start + 16, mode="clip"
            )
            out[escaped] = np.where(raw >= 2**31, raw - 2**32, raw)

    consumed = int(nxt[int(positions[-1])])
    if consumed != total_bits:
        raise CompressionError(
            f"huffman stream misaligned: consumed {consumed} of {total_bits} bits"
        )
    return out


def _code_lengths_reference(frequencies: dict[int, int]) -> dict[int, int]:
    """Heap-built Huffman code lengths per symbol, length-limited to 16 bits."""
    if len(frequencies) == 1:
        return {next(iter(frequencies)): 1}
    heap: list[tuple[int, int, list[int]]] = []
    for tiebreak, (symbol, freq) in enumerate(sorted(frequencies.items())):
        heapq.heappush(heap, (freq, tiebreak, [symbol]))
    lengths = {symbol: 0 for symbol in frequencies}
    counter = len(frequencies)
    while len(heap) > 1:
        f1, __, group1 = heapq.heappop(heap)
        f2, __, group2 = heapq.heappop(heap)
        for symbol in group1 + group2:
            lengths[symbol] += 1
        counter += 1
        heapq.heappush(heap, (f1 + f2, counter, group1 + group2))
    # Length-limit: clamp overlong codes, then restore the Kraft sum by
    # deepening the shallowest cheap symbols (zlib-style fix-up).
    capped = {s: min(l, _MAX_CODE_LENGTH) for s, l in lengths.items()}
    kraft = sum(2 ** (_MAX_CODE_LENGTH - l) for l in capped.values())
    budget = 2**_MAX_CODE_LENGTH
    if kraft > budget:
        # Deepen symbols ordered by ascending frequency so common symbols
        # keep short codes.
        order = sorted(capped, key=lambda s: (frequencies[s], s))
        index = 0
        while kraft > budget:
            symbol = order[index % len(order)]
            index += 1
            if capped[symbol] < _MAX_CODE_LENGTH:
                kraft -= 2 ** (_MAX_CODE_LENGTH - capped[symbol] - 1)
                capped[symbol] += 1
    return capped


def _canonical_codes_reference(lengths: dict[int, int]) -> dict[int, tuple[int, int]]:
    """Assign canonical (code, length) pairs sorted by (length, symbol)."""
    code = 0
    previous_length = 0
    table: dict[int, tuple[int, int]] = {}
    for symbol, length in sorted(lengths.items(), key=lambda item: (item[1], item[0])):
        code <<= length - previous_length
        table[symbol] = (code, length)
        code += 1
        previous_length = length
    return table


def _encode_reference(symbols: np.ndarray, max_alphabet: int = 4096) -> bytes:
    """The original encoder: heap code lengths, dict codes, per-bit packer.

    Kept as the ground truth for the vectorized path: property tests
    assert :func:`huffman_encode` produces byte-identical blobs.
    """
    max_alphabet = check_max_alphabet(max_alphabet)
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    n = symbols.size
    if n == 0:
        return _MAGIC + struct.pack("<IH", 0, 0)
    unique, inverse, counts = np.unique(symbols, return_inverse=True, return_counts=True)
    if np.any(np.abs(unique) >= 2**31):
        raise CompressionError("huffman symbols must fit in int32")
    keep = np.argsort(counts)[::-1][: max_alphabet - 1]
    kept_unique = np.zeros(unique.size, dtype=bool)
    kept_unique[keep] = True
    frequencies: dict[int, int] = {
        int(unique[i]): int(counts[i]) for i in keep
    }
    n_escaped = n - sum(frequencies.values())
    if n_escaped > 0:
        frequencies[_ESCAPE] = n_escaped
    lengths = _code_lengths_reference(frequencies)
    codes = _canonical_codes_reference(lengths)

    escape_code, escape_length = codes.get(_ESCAPE, (0, 0))
    unique_code = np.empty(unique.size, dtype=np.uint64)
    unique_length = np.empty(unique.size, dtype=np.int64)
    for i, symbol in enumerate(unique):
        entry = codes.get(int(symbol))
        if entry is None:
            unique_code[i], unique_length[i] = escape_code, escape_length
        else:
            unique_code[i], unique_length[i] = entry
    values = unique_code[inverse]
    value_lengths = unique_length[inverse]

    if n_escaped > 0:
        values, value_lengths = _append_raw(
            symbols, ~kept_unique[inverse], values, value_lengths
        )

    payload, total_bits = _pack_codes_reference(values, value_lengths)
    header = [_MAGIC, struct.pack("<IH", n, len(lengths))]
    for symbol, length in sorted(lengths.items(), key=lambda item: (item[1], item[0])):
        header.append(struct.pack("<iB", symbol, length))
    header.append(struct.pack("<Q", total_bits))
    return b"".join(header) + payload


def _decode_reference(blob: bytes) -> np.ndarray:
    """The original scalar decoder, one table hit per symbol.

    Kept as the ground truth for the vectorized path: property tests
    assert :func:`huffman_decode` is bit-exact against it, and it serves
    as the fallback for streams too large for int32 position arithmetic.
    """
    if blob[:4] != _MAGIC:
        raise CompressionError("bad huffman magic")
    n, n_alphabet = struct.unpack_from("<IH", blob, 4)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    offset = 10
    lengths: dict[int, int] = {}
    for __ in range(n_alphabet):
        symbol, length = struct.unpack_from("<iB", blob, offset)
        lengths[symbol] = length
        offset += 5
    (total_bits,) = struct.unpack_from("<Q", blob, offset)
    offset += 8
    codes = _canonical_codes_reference(lengths)

    # 16-bit prefix lookup table: prefix -> (symbol, length).
    table_symbol = np.zeros(2**_MAX_CODE_LENGTH, dtype=np.int64)
    table_length = np.zeros(2**_MAX_CODE_LENGTH, dtype=np.int64)
    for symbol, (code, length) in codes.items():
        start = code << (_MAX_CODE_LENGTH - length)
        end = (code + 1) << (_MAX_CODE_LENGTH - length)
        table_symbol[start:end] = symbol
        table_length[start:end] = length

    bits = np.unpackbits(np.frombuffer(blob[offset:], dtype=np.uint8))
    if bits.size < total_bits:
        raise CompressionError("huffman payload truncated")
    # Sliding 16-bit window values for every bit offset.
    padded = np.concatenate([bits, np.zeros(_MAX_CODE_LENGTH, dtype=np.uint8)])
    window = np.zeros(total_bits + 1, dtype=np.uint32)
    for j in range(_MAX_CODE_LENGTH):
        window[: total_bits + 1] |= padded[j : j + total_bits + 1].astype(np.uint32) << (
            _MAX_CODE_LENGTH - 1 - j
        )

    out = np.empty(n, dtype=np.int64)
    position = 0
    symbols_view = table_symbol
    lengths_view = table_length
    for i in range(n):
        prefix = window[position]
        symbol = symbols_view[prefix]
        position += lengths_view[prefix]
        if symbol == _ESCAPE:
            raw = (int(window[position]) << 16) | int(window[position + 16])
            position += 32
            if raw >= 2**31:
                raw -= 2**32
            symbol = raw
        out[i] = symbol
    if position != total_bits:
        raise CompressionError(
            f"huffman stream misaligned: consumed {position} of {total_bits} bits"
        )
    return out
