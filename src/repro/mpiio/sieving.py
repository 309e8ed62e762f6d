"""Data sieving (Thakur, Gropp, Lusk -- "Data Sieving and Collective I/O in
ROMIO").

Independent I/O on a non-contiguous file view would naively issue one request
per segment.  Data sieving instead reads one large contiguous extent covering
many segments into a buffer and picks out (or patches in, for read-modify-
write writes) the useful pieces.  It trades extra bytes moved for far fewer
I/O requests -- a winning trade everywhere the per-request cost matters, and
the mechanism behind the paper's observation that MPI-IO *reads* beat HDF4 on
PVFS "because of the caching and ROMIO data-sieving techniques".
"""

from __future__ import annotations

from .adio import ADIOFile, as_byte_view
from .hints import Hints

__all__ = ["sieve_read", "sieve_write", "plan_extents"]


def plan_extents(
    segments: list[tuple[int, int]], buffer_size: int, min_density: float
) -> list[tuple[int, int, int, int]]:
    """Group ordered segments into sieving extents.

    Returns ``(extent_offset, extent_length, first_seg, nsegs)`` tuples
    covering all segments in order.  Consecutive segments are greedily packed
    into one extent while it stays within ``buffer_size`` and its useful
    density stays at or above ``min_density``.
    """
    if buffer_size < 1:
        raise ValueError("buffer_size must be >= 1")
    out: list[tuple[int, int, int, int]] = []
    i = 0
    n = len(segments)
    while i < n:
        start_off = segments[i][0]
        end_off = start_off + segments[i][1]
        useful = segments[i][1]
        j = i + 1
        while j < n:
            seg_off, seg_len = segments[j]
            new_end = max(end_off, seg_off + seg_len)
            new_span = new_end - start_off
            if new_span > buffer_size:
                break
            new_useful = useful + seg_len
            if min_density > 0.0 and new_useful / new_span < min_density:
                break
            end_off, useful = new_end, new_useful
            j += 1
        out.append((start_off, end_off - start_off, i, j - i))
        i = j
    return out


def sieve_read(
    adio: ADIOFile,
    segments: list[tuple[int, int]],
    hints: Hints,
) -> bytes:
    """Read the bytes of ``segments`` (in offset order); returns them packed."""
    total = sum(n for _, n in segments)
    out = bytearray(total)
    pos = 0
    if not hints.ds_read:
        for off, length in segments:
            out[pos : pos + length] = adio.read_contig(off, length)
            pos += length
        return bytes(out)
    for ext_off, ext_len, first, nsegs in plan_extents(
        segments, hints.ind_rd_buffer_size, hints.ds_min_density
    ):
        buf = adio.read_contig(ext_off, ext_len)
        for off, length in segments[first : first + nsegs]:
            rel = off - ext_off
            out[pos : pos + length] = buf[rel : rel + length]
            pos += length
    if pos != total:
        raise AssertionError("sieve_read failed to cover all segments")
    return bytes(out)


def sieve_write(
    adio: ADIOFile,
    segments: list[tuple[int, int]],
    data,
    hints: Hints,
) -> int:
    """Write ``data`` into ``segments`` (in offset order).

    A sieved extent is read, patched with the useful pieces, and written
    back in one request (ROMIO's read-modify-write write sieving; atomicity
    across concurrent writers is the caller's concern, as in ROMIO's
    default non-atomic mode).  Single-segment extents skip the RMW.
    """
    data = as_byte_view(data)
    total = sum(n for _, n in segments)
    if len(data) != total:
        raise ValueError(f"data has {len(data)} bytes, segments need {total}")
    pos = 0
    if not hints.ds_write:
        for off, length in segments:
            adio.write_contig(off, data[pos : pos + length])
            pos += length
        return total
    for ext_off, ext_len, first, nsegs in plan_extents(
        segments, hints.ind_wr_buffer_size, hints.ds_min_density
    ):
        if nsegs == 1:
            off, length = segments[first]
            adio.write_contig(off, data[pos : pos + length])
            pos += length
            continue
        buf = bytearray(adio.read_contig(ext_off, ext_len))
        for off, length in segments[first : first + nsegs]:
            rel = off - ext_off
            buf[rel : rel + length] = data[pos : pos + length]
            pos += length
        adio.write_contig(ext_off, buf)
    if pos != total:
        raise AssertionError("sieve_write failed to cover all segments")
    return total
