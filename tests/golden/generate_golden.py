#!/usr/bin/env python3
"""Regenerates the golden serialization fixtures in this directory.

The fixtures pin the on-disk byte layout of the sketch-set (.skt, magic TSKS)
and pool (.pool, magic TSKP) formats documented in docs/FORMATS.md. The C++
golden tests (sketch_io_test.cc, pool_io_test.cc) rebuild the same artifacts
from literal values and assert byte equality against these files, so any
accidental format change — field order, widths, padding, version — fails
loudly.

All values are small multiples of powers of two, hence exactly representable
in IEEE-754 doubles: the fixtures are independent of FFT/optimization-level
floating-point details and identical on every little-endian platform.
"""

import struct
from pathlib import Path

HERE = Path(__file__).resolve().parent


def sketch_set_value(sketch, component):
    return sketch * 1.5 + component * 0.25 - 2.0


def write_sketch_set():
    p, k, seed = 0.5, 6, 1234
    object_rows, object_cols, count = 8, 16, 3
    blob = struct.pack("<4sId5Q", b"TSKS", 1, p, k, seed, object_rows,
                       object_cols, count)
    for s in range(count):
        for j in range(k):
            blob += struct.pack("<d", sketch_set_value(s, j))
    (HERE / "sketch_set_v1.skt").write_bytes(blob)


def write_sketch_set_v2():
    """Version 2 appends the family sparsity (a little-endian double) to the
    header; this fixture pins the 64-byte v2 header with sparsity 0.25."""
    p, k, seed, sparsity = 0.5, 6, 1234, 0.25
    object_rows, object_cols, count = 8, 16, 3
    blob = struct.pack("<4sId5Qd", b"TSKS", 2, p, k, seed, object_rows,
                       object_cols, count, sparsity)
    for s in range(count):
        for j in range(k):
            blob += struct.pack("<d", sketch_set_value(s, j))
    (HERE / "sketch_set_v2.skt").write_bytes(blob)


def pool_plane_value(field, plane, index):
    return field * 100.0 + plane * 10.0 + index * 0.5 - 3.0


def write_pool():
    p, k, seed = 1.0, 2, 31
    data_rows, data_cols = 8, 8
    # (window_rows, window_cols, position_rows, position_cols), sorted by
    # window size exactly as SketchPool's std::map iterates.
    fields = [(2, 2, 7, 7), (4, 4, 5, 5)]
    blob = struct.pack("<4sId5Q", b"TSKP", 1, p, k, seed, data_rows,
                       data_cols, len(fields))
    for f, (wr, wc, pr, pc) in enumerate(fields):
        blob += struct.pack("<4Q", wr, wc, pr, pc)
        for plane in range(k):
            for index in range(pr * pc):
                blob += struct.pack("<d", pool_plane_value(f, plane, index))
    (HERE / "pool_v1.pool").write_bytes(blob)


def write_pool_v2():
    """TSKP version 2: the v1 layout with the family sparsity appended to the
    header (64 bytes total), pinned at sparsity 0.25."""
    p, k, seed, sparsity = 1.0, 2, 31, 0.25
    data_rows, data_cols = 8, 8
    fields = [(2, 2, 7, 7), (4, 4, 5, 5)]
    blob = struct.pack("<4sId5Qd", b"TSKP", 2, p, k, seed, data_rows,
                       data_cols, len(fields), sparsity)
    for f, (wr, wc, pr, pc) in enumerate(fields):
        blob += struct.pack("<4Q", wr, wc, pr, pc)
        for plane in range(k):
            for index in range(pr * pc):
                blob += struct.pack("<d", pool_plane_value(f, plane, index))
    (HERE / "pool_v2.pool").write_bytes(blob)


def append_piece_value(row, col):
    return row * 2.0 + col * 0.5 - 4.0


def write_append_piece():
    """TSKT v1 (magic TSKT): the column piece streaming ingest appends — the
    same binary table format ReadBinary/WriteBinary speak, pinned here
    because the `append` wire verb and `tabsketch ingest` read it directly
    (streaming_test.cc asserts the parse and the error paths on truncated /
    corrupted variants built from these bytes)."""
    rows, cols = 4, 3
    blob = struct.pack("<4sIQQ", b"TSKT", 1, rows, cols)
    for r in range(rows):
        for c in range(cols):
            blob += struct.pack("<d", append_piece_value(r, c))
    (HERE / "append_piece_v1.tbl").write_bytes(blob)


if __name__ == "__main__":
    write_sketch_set()
    write_sketch_set_v2()
    write_pool()
    write_pool_v2()
    write_append_piece()
    print("golden fixtures regenerated in", HERE)
