"""Ball cache files: persisted LengthIndex tables.

Format (text, UTF-8, LF):

    rdlab-ball-cache v2 | <group descriptor> | N=<radius> | spheres=<|S_0|>,...,<|S_N|>
    <canonical key>TAB<length>
    ...

Records are sorted by (length, key), which matches the in-memory sphere
order, so a reloaded index behaves bit-identically to a fresh enumeration.
Keys are canonical: ``element_key`` writes them and ``parse_key`` accepts no
other spelling.  The header's sphere sizes let a reader tell a cut or padded
file from a whole one on every group.
The descriptor names a group on its standard generators, so only such a
group reads or finds a cache file.  A file is named for its group and radius
(``cache_path``); a command reads only the file named for the radius it
works to, and a header that gives another radius is rejected.

On Z^d and H3 the records are written from the index's int64 rows by one
``%d`` template, and read by parsing the integers with numpy: a file is read
that way only if that template gives back its exact bytes.  Every other file
and group goes through the record-by-record reader, which also names the
first bad line of a file it rejects.
"""

from __future__ import annotations

import hashlib
import io
from pathlib import Path

import numpy as np

from .errors import RdlabError
from .groups import (
    COORD_LIMIT,
    DEFAULT_BUDGET,
    IntegerTupleGroup,
    LengthIndex,
    enumerate_balls,
    parse_descriptor,
    parse_int,
    text_order,
)

HEADER_PREFIX = "rdlab-ball-cache v2"
# Records formatted per ``%`` call: bounds the argument tuple's memory.
RECORD_BLOCK = 1 << 16


class CacheFormatError(RdlabError):
    pass


def cache_path(directory, spec, radius):
    """The path of the cache file of ``spec`` to ``radius`` in ``directory``."""
    return Path(directory) / f"{spec.descriptor()}.N{radius}.ballcache"


def _records(table):
    """The record lines of ``table``, an int64 array with one row per
    element: its coordinates, then its length."""
    record = ",".join(["%d"] * (table.shape[1] - 1)) + "\t%d\n"
    return "".join((record * len(block)) % tuple(block.ravel().tolist())
                   for block in np.split(table, range(RECORD_BLOCK, len(table),
                                                      RECORD_BLOCK)))


def serialize_index(index: LengthIndex):
    spec = index.spec
    spheres = ",".join(str(size) for size in index.sphere_sizes)
    header = (f"{HEADER_PREFIX} | {spec.descriptor()} | N={index.radius} | "
              f"spheres={spheres}\n")
    if index.rows is not None:
        lengths = np.repeat(np.arange(index.radius + 1), index.sphere_sizes)
        return header + _records(np.column_stack([index.rows, lengths]))
    return header + "".join([f"{spec.element_key(g)}\t{n}\n"
                             for n in range(index.radius + 1)
                             for g in index.sphere(n)])


def write_ball_cache(index: LengthIndex, path):
    data = serialize_index(index)
    Path(path).write_text(data, encoding="utf-8")
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _read_header(path, text, spec, radius=None):
    """(spec, radius, sphere sizes) from the header of a cache file's
    ``text``; a given ``spec`` must match it and be on its standard
    generators, and a given ``radius`` must be the header's."""
    if not text:
        raise CacheFormatError(f"{path}: empty cache file")
    header = text.partition("\n")[0]
    parts = [p.strip() for p in header.split("|")]
    if parts[0] == "rdlab-ball-cache v1":
        raise CacheFormatError(
            f"{path}: a v1 cache file has no sphere sizes in its header; "
            "rebuild it with 'rdlab cache build'")
    if (len(parts) != 4 or parts[0] != HEADER_PREFIX
            or not parts[2].startswith("N=")
            or not parts[3].startswith("spheres=")):
        raise CacheFormatError(f"{path}: bad header {header!r}")
    descriptor = parts[1]
    N = int(parts[2][2:])
    spheres = [int(size) for size in parts[3][len("spheres="):].split(",")]
    if len(spheres) != N + 1:
        raise CacheFormatError(
            f"{path}: header lists {len(spheres)} sphere sizes for radius {N}")
    if radius is not None and N != radius:
        raise CacheFormatError(
            f"{path}: header gives radius {N}, expected radius {radius}")
    if spec is None:
        spec = parse_descriptor(descriptor)
    elif not spec.has_standard_generators():
        raise CacheFormatError(
            f"{path}: a cache file holds {descriptor} on its standard "
            "generators, not on the generators given")
    elif spec.descriptor() != descriptor:
        raise CacheFormatError(
            f"{path}: cache is for {descriptor!r}, expected {spec.descriptor()!r}")
    return spec, N, spheres


def read_ball_cache(path, spec=None, radius=None):
    """Load a cache file into a LengthIndex; validates the header (against
    ``spec`` and ``radius`` when given), the record order, and the sphere
    sizes against the header and, where a closed form gives them, against
    it."""
    text = Path(path).read_text(encoding="utf-8")
    spec, radius, header_spheres = _read_header(path, text, spec, radius)
    index = _read_rows(spec, radius, text) or _read_records(path, spec, radius,
                                                            text)
    for source, sizes in (("closed form", spec.closed_sphere_sizes(radius)),
                          ("header", header_spheres)):
        if sizes is not None and sizes != index.sphere_sizes:
            n = next(n for n, (want, got) in enumerate(zip(sizes, index.sphere_sizes))
                     if want != got)
            raise CacheFormatError(
                f"{path}: sphere {n} has {index.sphere_sizes[n]} elements, the "
                f"{source} {sizes[n]}")
    return index


def _read_rows(spec, radius, text):
    """The index of an IntegerTupleGroup file whose records ``_records``
    writes back byte for byte, in (length, key) order without a repeated
    element and with lengths in [0, radius]; None for any other file."""
    body = text.partition("\n")[2]
    # loadtxt skips blank lines, and warns when it finds nothing else
    if not (isinstance(spec, IntegerTupleGroup) and body.strip("\n")):
        return None
    try:
        table = np.loadtxt(io.StringIO(body.replace("\t", ",")), dtype=np.int64,
                           delimiter=",", comments=None, ndmin=2)
    except (ValueError, OverflowError):
        return None
    if table.shape[1] != len(spec.identity()) + 1 or _records(table) != body:
        return None
    rows, lengths = np.ascontiguousarray(table[:, :-1]), table[:, -1]
    if (lengths.min() < 0 or lengths.max() > radius
            or rows.min() <= -COORD_LIMIT or rows.max() >= COORD_LIMIT):
        return None
    order = text_order(rows)
    ranked = rows[order]
    if (ranked[1:] == ranked[:-1]).all(axis=1).any():
        return None
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    step = np.diff(lengths)
    if not ((step > 0) | ((step == 0) & (np.diff(rank) > 0))).all():
        return None
    sizes = np.bincount(lengths, minlength=radius + 1).tolist()
    return LengthIndex(spec, radius, rows=rows, sphere_sizes=sizes)


def _read_records(path, spec, radius, text):
    """The index of a cache file read record by record; CacheFormatError
    naming the first bad line."""
    lengths = {}
    spheres = [[] for _ in range(radius + 1)]
    previous = (-1, "")
    for lineno, line in enumerate(text.splitlines()[1:], start=2):
        try:
            key, n_text = line.split("\t")
            n = parse_int(n_text)
            g = spec.parse_key(key)
        except ValueError:
            raise CacheFormatError(f"{path}:{lineno}: bad record {line!r}") from None
        if not 0 <= n <= radius:
            raise CacheFormatError(f"{path}:{lineno}: length {n} outside radius")
        if (n, key) <= previous:
            raise CacheFormatError(
                f"{path}:{lineno}: record {key!r} out of (length, key) order")
        previous = (n, key)
        if g in lengths:
            raise CacheFormatError(f"{path}:{lineno}: duplicate element {key!r}")
        lengths[g] = n
        spheres[n].append(g)
    return LengthIndex(spec, radius, spheres=spheres, lengths=lengths)


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cache_roundtrip(spec, N, path, budget=DEFAULT_BUDGET):
    """Enumerate, write, reload, and compare; True iff the reload is identical."""
    index = enumerate_balls(spec, N, budget=budget)
    write_ball_cache(index, path)
    loaded = read_ball_cache(path, spec, N)
    return (loaded.lengths == index.lengths
            and loaded.sphere_sizes == index.sphere_sizes
            and loaded.ball_sizes == index.ball_sizes
            and all(loaded.sphere(n) == index.sphere(n)
                    for n in range(index.radius + 1)))


def check_ball_cache(path, spec=None, radius=None, budget=DEFAULT_BUDGET):
    """Re-enumerate and byte-compare against the file, whose header must
    match ``spec`` and ``radius`` when given; (ok, detail) result."""
    try:
        actual = Path(path).read_text(encoding="utf-8")
        spec, radius, _ = _read_header(path, actual, spec, radius)
    except (CacheFormatError, ValueError) as exc:
        return False, f"unreadable cache: {exc}"
    fresh = enumerate_balls(spec, radius, budget=budget)
    expected = serialize_index(fresh)
    if expected != actual:
        want = hashlib.sha256(expected.encode("utf-8")).hexdigest()
        got = hashlib.sha256(actual.encode("utf-8")).hexdigest()
        return False, f"digest mismatch: expected {want}, file has {got}"
    return True, f"ok: {fresh.size()} elements to radius {radius}"


def find_cache(cache_dir, spec, radius):
    """The cache file of ``spec`` to exactly ``radius`` in ``cache_dir``, or
    None when there is none; None for a group off its standard generators."""
    if not spec.has_standard_generators():
        return None
    path = cache_path(cache_dir, spec, radius)
    return path if path.is_file() else None
