"""Ball cache files: persisted LengthIndex tables.

Format (text, UTF-8, LF):

    rdlab-ball-cache v2 | <group descriptor> | N=<radius> | spheres=<|S_0|>,...,<|S_N|>
    <canonical key>TAB<length>
    ...

Records are sorted by (length, key), the in-memory sphere order, and keys
are spelled as ``element_key`` writes them.  On Z^d and H3 they are gathered
from the index's int64 rows through one word table per column, which holds
each value's ``str`` and separator NUL-padded to whole uint64 words, the
padding deleted afterwards; on other groups, products included, each
element's key is spelled by ``element_key`` as the record is written.

One rule decides a read: a file is read only at
``<dir>/<group>.N<radius>.ballcache`` (``cache_path``), and only when its
bytes are those the group's own enumeration writes.  A read enumerates the
caller's group to the caller's radius, under the caller's budget, and
returns that index only when ``serialize_index`` gives back the file's exact
text, header line included; otherwise it names the first line that differs.
Nothing in a file is taken on trust, so a cached run is the fresh run.
``cache check`` is the same read.
"""
from __future__ import annotations

import hashlib
import itertools
import operator
from pathlib import Path

import numpy as np

from .errors import RdlabError
from .groups import DEFAULT_BUDGET, LengthIndex, enumerate_balls

HEADER_PREFIX = "rdlab-ball-cache v2"
# Records gathered per block: a block's arrays stay near 1 MB, which ran
# faster and to a lower peak RSS than blocks of 65,536 records.
RECORD_BLOCK = 1 << 14


class CacheFormatError(RdlabError):
    pass


def cache_path(directory, spec, radius):
    """The path of the cache file of ``spec`` to ``radius`` in ``directory``."""
    return Path(directory) / f"{spec.descriptor()}.N{radius}.ballcache"


def _column_words(column, sep):
    """(table, entry, offset): the word table of the int64 ``column``, in
    which row i of the column is row ``entry[i] - offset``.

    The table holds ``str(v) + sep`` for the values v of the column,
    NUL-padded to as many uint64 words as its widest entry needs, one row
    per value: every value from the column's min to its max, or, when that
    span is longer than the column, the distinct values it holds, so the
    table is never longer than the column."""
    lo, hi = int(column.min()), int(column.max())
    if hi - lo <= len(column):
        values, entry, offset = range(lo, hi + 1), column, lo
    else:
        values, entry = np.unique(column, return_inverse=True)
        values, offset = values.tolist(), 0
    text = [f"{v}{sep}" for v in values]
    words = -(-max(map(len, text)) // 8)
    table = np.array(text, dtype=f"S{8 * words}").view(np.uint64)
    return table.reshape(len(text), words), entry, offset


def _records(columns):
    """The record lines of a table given by its int64 ``columns``, one row
    per element: its coordinates, then its length.

    A block of rows at a time, every column's entries are gathered from its
    word table into one uint64 array; its bytes with the NUL padding deleted
    are the block's records."""
    count = len(columns[0])
    if not count:
        return ""
    seps = [","] * (len(columns) - 2) + ["\t", "\n"]
    tables = [_column_words(column, sep) for column, sep in zip(columns, seps)]
    width = sum(table.shape[1] for table, _, _ in tables)
    out = []
    for start in range(0, count, RECORD_BLOCK):
        rows = slice(start, min(start + RECORD_BLOCK, count))
        block = np.empty((rows.stop - start, width), np.uint64)
        at = 0
        for table, entry, offset in tables:
            np.take(table, entry[rows] - offset, axis=0,
                    out=block[:, at:at + table.shape[1]])
            at += table.shape[1]
        out.append(block.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(out)


def serialize_index(index: LengthIndex):
    spec = index.spec
    spheres = ",".join(str(size) for size in index.sphere_sizes)
    header = (f"{HEADER_PREFIX} | {spec.descriptor()} | N={index.radius} | "
              f"spheres={spheres}\n")
    if index.rows is not None:
        lengths = np.repeat(np.arange(index.radius + 1), index.sphere_sizes)
        return header + _records([*index.rows.T, lengths])
    keys = map(spec.element_key, index.ball(index.radius))
    tails = itertools.chain.from_iterable(
        itertools.repeat(f"\t{n}\n", size)
        for n, size in enumerate(index.sphere_sizes))
    return header + "".join(map(operator.add, keys, tails))


def write_ball_cache(index: LengthIndex, path):
    data = serialize_index(index).encode("utf-8")
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _first_difference(expected, found):
    """'<line>: ...' naming the first line of ``found`` that is not the line
    of ``expected``, or where ``found`` ends early or runs on."""
    want = expected.splitlines(keepends=True)
    got = found.splitlines(keepends=True)
    for lineno, (line, actual) in enumerate(zip(want, got), start=1):
        if line != actual:
            return f"{lineno}: expected {line!r}, found {actual!r}"
    if len(got) < len(want):
        return f"{len(got) + 1}: the file ends, expected {want[len(got)]!r}"
    return f"{len(want) + 1}: expected the end of the file, found {got[len(want)]!r}"


def read_ball_cache(path, spec, radius, budget=DEFAULT_BUDGET):
    """The LengthIndex of ``spec`` to ``radius``, enumerated under ``budget``
    and returned only when it serializes to the exact text of the file at
    ``path``; CacheFormatError naming the first line that differs."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CacheFormatError(
            f"{path}: not UTF-8 text at byte {exc.start}") from None
    index = enumerate_balls(spec, radius, budget=budget)
    expected = serialize_index(index)
    if text != expected:
        raise CacheFormatError(f"{path}:{_first_difference(expected, text)}")
    return index


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cache_roundtrip(spec, N, path, budget=DEFAULT_BUDGET):
    """Write the ball of ``spec`` to ``N`` to ``path`` and read it back;
    True iff the read takes the file."""
    write_ball_cache(enumerate_balls(spec, N, budget=budget), path)
    return check_ball_cache(path, spec, N, budget=budget)[0]


def check_ball_cache(path, spec, radius, budget=DEFAULT_BUDGET):
    """``read_ball_cache`` as an (ok, detail) result."""
    try:
        index = read_ball_cache(path, spec, radius, budget=budget)
    except (CacheFormatError, ValueError) as exc:
        return False, f"rejected: {exc}"
    return True, f"ok: {index.size()} elements to radius {index.radius}"

