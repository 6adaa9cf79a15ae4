"""Ball cache files: persisted LengthIndex tables.

Format (text, UTF-8, LF):

    rdlab-ball-cache v2 | <group descriptor> | N=<radius> | spheres=<|S_0|>,...,<|S_N|>
    <canonical key>TAB<length>
    ...

Records are sorted by (length, key), which matches the in-memory sphere
order, so a reloaded index behaves bit-identically to a fresh enumeration.
The header's sphere sizes let a reader tell a cut or padded file from a
whole one on every group.
The descriptor names a group on its standard generators, so only such a
group reads or finds a cache file.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from .errors import RdlabError
from .groups import DEFAULT_BUDGET, LengthIndex, enumerate_balls, parse_descriptor

HEADER_PREFIX = "rdlab-ball-cache v2"


class CacheFormatError(RdlabError):
    pass


def cache_filename(descriptor, radius):
    return f"{descriptor}.N{radius}.ballcache"


def serialize_index(index: LengthIndex):
    spec = index.spec
    spheres = ",".join(str(size) for size in index.sphere_sizes)
    lines = [f"{HEADER_PREFIX} | {spec.descriptor()} | N={index.radius} | "
             f"spheres={spheres}"]
    for n in range(index.radius + 1):
        for g in index.sphere(n):
            lines.append(f"{spec.element_key(g)}\t{n}")
    return "\n".join(lines) + "\n"


def write_ball_cache(index: LengthIndex, path):
    data = serialize_index(index)
    Path(path).write_text(data, encoding="utf-8")
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def _read_header(path, text, spec):
    """(spec, radius, sphere sizes) from the header of a cache file's
    ``text``; a given ``spec`` must match it and be on its standard
    generators."""
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
    radius = int(parts[2][2:])
    spheres = [int(size) for size in parts[3][len("spheres="):].split(",")]
    if len(spheres) != radius + 1:
        raise CacheFormatError(
            f"{path}: header lists {len(spheres)} sphere sizes for radius {radius}")
    if spec is None:
        spec = parse_descriptor(descriptor)
    elif not spec.has_standard_generators():
        raise CacheFormatError(
            f"{path}: a cache file holds {descriptor} on its standard "
            "generators, not on the generators given")
    elif spec.descriptor() != descriptor:
        raise CacheFormatError(
            f"{path}: cache is for {descriptor!r}, expected {spec.descriptor()!r}")
    return spec, radius, spheres


def read_ball_cache(path, spec=None):
    """Load a cache file into a LengthIndex; validates the header, the record
    order, and the sphere sizes against the header and, where a closed form
    gives them, against it."""
    text = Path(path).read_text(encoding="utf-8")
    spec, radius, header_spheres = _read_header(path, text, spec)
    lines = text.splitlines()

    lengths = {}
    spheres = [[] for _ in range(radius + 1)]
    previous = (-1, "")
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            key, n_text = line.split("\t")
            n = int(n_text)
        except ValueError:
            raise CacheFormatError(f"{path}:{lineno}: bad record {line!r}") from None
        if not 0 <= n <= radius:
            raise CacheFormatError(f"{path}:{lineno}: length {n} outside radius")
        if (n, key) <= previous:
            raise CacheFormatError(
                f"{path}:{lineno}: record {key!r} out of (length, key) order")
        previous = (n, key)
        g = spec.parse_key(key)
        if g in lengths:
            raise CacheFormatError(f"{path}:{lineno}: duplicate element {key!r}")
        lengths[g] = n
        spheres[n].append(g)
    index = LengthIndex(spec=spec, radius=radius, lengths=lengths, spheres=spheres)
    for source, sizes in (("closed form", spec.closed_sphere_sizes(radius)),
                          ("header", header_spheres)):
        if sizes is not None and sizes != index.sphere_sizes:
            n = next(n for n, (want, got) in enumerate(zip(sizes, index.sphere_sizes))
                     if want != got)
            raise CacheFormatError(
                f"{path}: sphere {n} has {index.sphere_sizes[n]} elements, the "
                f"{source} {sizes[n]}")
    return index


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cache_roundtrip(spec, N, path, budget=DEFAULT_BUDGET):
    """Enumerate, write, reload, and compare; True iff the reload is identical."""
    index = enumerate_balls(spec, N, budget=budget)
    write_ball_cache(index, path)
    loaded = read_ball_cache(path, spec)
    return (loaded.lengths == index.lengths
            and loaded.sphere_sizes == index.sphere_sizes
            and loaded.ball_sizes == index.ball_sizes
            and all(loaded.sphere(n) == index.sphere(n)
                    for n in range(index.radius + 1)))


def check_ball_cache(path, spec=None, budget=DEFAULT_BUDGET):
    """Re-enumerate and byte-compare against the file; (ok, detail) result."""
    try:
        actual = Path(path).read_text(encoding="utf-8")
        spec, radius, _ = _read_header(path, actual, spec)
    except (CacheFormatError, ValueError) as exc:
        return False, f"unreadable cache: {exc}"
    fresh = enumerate_balls(spec, radius, budget=budget)
    expected = serialize_index(fresh)
    if expected != actual:
        want = hashlib.sha256(expected.encode("utf-8")).hexdigest()
        got = hashlib.sha256(actual.encode("utf-8")).hexdigest()
        return False, f"digest mismatch: expected {want}, file has {got}"
    return True, f"ok: {fresh.size()} elements to radius {radius}"


def find_cache(cache_dir, spec, min_radius):
    """Smallest adequate cache file for ``spec`` in ``cache_dir``, or None;
    None for a group off its standard generators."""
    if cache_dir is None or not spec.has_standard_generators():
        return None
    directory = Path(cache_dir)
    if not directory.is_dir():
        return None
    best = None
    prefix = f"{spec.descriptor()}.N"
    for entry in sorted(directory.iterdir()):
        name = entry.name
        if not (name.startswith(prefix) and name.endswith(".ballcache")):
            continue
        try:
            radius = int(name[len(prefix):-len(".ballcache")])
        except ValueError:
            continue
        if radius >= min_radius and (best is None or radius < best[0]):
            best = (radius, entry)
    return best[1] if best else None
