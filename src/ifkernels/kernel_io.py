"""Kernel-set persistence: a line-oriented text format.

Layout::

    format_version = 1
    flavor = smatpi
    splitting = sym_env
    dt = 0.1
    r_max = 6
    dim = 4
    aux_zero_convention = terminal_times_I0
    matrices = midpoint
    1,0,0,0.99875026039496628,-0.0
    ...
    matrices = termination
    ...
    matrices = aux0
    0,0,0,1.0,0.0

Entry lines are ``k,row,col,re,im`` with re/im printed as the shortest
decimal that round-trips the binary double (Python ``repr``), so
load(save(x)) reproduces the in-memory values bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ParseError, ValidationError, VersionError
from .kernels import KernelSet

FORMAT_VERSION = 1


def _format_block(name: str, mats) -> list:
    lines = [f"matrices = {name}"]
    for k, mat in enumerate(mats, start=1):
        m = np.asarray(mat)
        cells = itertools.product(range(m.shape[0]), range(m.shape[1]))
        lines += [f"{k},{row},{col},{re!r},{im!r}" for (row, col), re, im
                  in zip(cells, m.real.ravel().tolist(), m.imag.ravel().tolist())]
    return lines


def save_kernels(kset: KernelSet, path, metadata: dict | None = None) -> None:
    """Write a KernelSet to ``path`` in the text format above.

    ``metadata`` entries are echoed as ``meta.<key> = <value>`` header lines
    (a record of the run's inputs; ignored on load).
    """
    lines = [
        f"format_version = {FORMAT_VERSION}",
        f"flavor = {kset.flavor}",
        f"splitting = {kset.splitting}",
        f"dt = {kset.dt!r}",
        f"r_max = {kset.r_max}",
        f"dim = {kset.dim}",
    ]
    if kset.aux_zero_convention is not None:
        lines.append(f"aux_zero_convention = {kset.aux_zero_convention}")
    for key, value in (metadata or {}).items():
        lines.append(f"meta.{key} = {value}")
    lines += _format_block("midpoint", kset.midpoint)
    if kset.termination is not None:
        lines += _format_block("termination", kset.termination)
    if kset.aux0 is not None:
        lines += _format_block("aux0", [kset.aux0])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_kernels(path) -> KernelSet:
    """Read a KernelSet written by save_kernels; exact elementwise round trip.

    Raises ParseError ("parse") for malformed files, for a repeated header
    key, matrices block or k,row,col entry, and for contents that
    KernelSet rejects: non-finite entries, an r_max header that differs from
    a stored matrix count, an aux0 that is not (dim, dim), an unknown
    splitting, or a block that ``propagate`` needs and the file lacks.
    """
    header = {}
    blocks = {}
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if "=" in line and "," not in line:
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key == "matrices":
                    if value not in ("midpoint", "termination", "aux0"):
                        raise ParseError(f"parse: line {lineno}: unknown block {value!r}")
                    if value in blocks:
                        raise ParseError(f"parse: line {lineno}: duplicate block {value!r}")
                    current = value
                    blocks[current] = {}
                else:
                    if key in header:
                        raise ParseError(f"parse: line {lineno}: duplicate header key {key!r}")
                    header[key] = value
                continue
            if current is None:
                raise ParseError(f"parse: line {lineno}: entry before any matrices block")
            parts = line.split(",")
            if len(parts) != 5:
                raise ParseError(f"parse: line {lineno}: expected k,row,col,re,im")
            try:
                k = int(parts[0])
                row = int(parts[1])
                col = int(parts[2])
                re = float(parts[3])
                im = float(parts[4])
            except ValueError:
                raise ParseError(f"parse: line {lineno}: bad numeric field") from None
            entries = blocks[current].setdefault(k, {})
            if (row, col) in entries:
                raise ParseError(f"parse: line {lineno}: duplicate entry {k},{row},{col}")
            entries[(row, col)] = complex(re, im)

    try:
        version = int(header["format_version"])
    except (KeyError, ValueError):
        raise ParseError("parse: missing or bad format_version header") from None
    if version != FORMAT_VERSION:
        raise VersionError(f"version: unsupported format_version {version}")

    try:
        flavor = header["flavor"]
        splitting = header["splitting"]
        dt = float(header["dt"])
        r_max = int(header["r_max"])
        dim = int(header["dim"])
    except (KeyError, ValueError):
        raise ParseError("parse: missing or bad header field") from None
    if dim < 1:
        raise ParseError(f"parse: dim {dim} must be >= 1")

    def build(block):
        """The block's matrices 1..K as one (K, dim, dim) array."""
        for k in range(1, len(block) + 1):  # sized from the file before allocating
            if k not in block:
                raise ParseError(f"parse: missing matrix index {k}")
            if len(block[k]) != dim * dim:
                raise ParseError(f"parse: matrix {k} has {len(block[k])} of {dim * dim} entries")
        mats = np.zeros((len(block), dim, dim), dtype=complex)
        for k, entries in block.items():
            for (row, col), v in entries.items():
                if not (0 <= row < dim and 0 <= col < dim):
                    raise ParseError(f"parse: entry ({row},{col}) out of range for dim {dim}")
                mats[k - 1, row, col] = v
        return mats

    if "midpoint" not in blocks or not blocks["midpoint"]:
        raise ParseError("parse: no midpoint matrices")
    midpoint = build(blocks["midpoint"])
    termination = build(blocks["termination"]) if "termination" in blocks else None
    aux0 = build(blocks["aux0"]) if "aux0" in blocks else None
    if aux0 is not None and len(aux0) != 1:
        raise ParseError(f"parse: aux0 block holds {len(aux0)} matrices, expected 1")

    try:
        return KernelSet(
            splitting,
            dt,
            r_max,
            midpoint,
            termination,
            flavor,
            aux_zero_convention=header.get("aux_zero_convention"),
            aux0=None if aux0 is None else aux0[0],
        )
    except ValidationError as exc:
        raise ParseError(f"parse: inconsistent kernel file ({exc})") from None
