"""Kernel-set persistence: a line-oriented text format.

Layout::

    format_version = 1
    flavor = smatpi
    splitting = sym_env
    dt = 0.1
    r_max = 6
    dim = 4
    matrices = midpoint
    1,0,0,0.99875026039496628,-0.0
    ...
    matrices = termination
    ...
    matrices = aux0
    0,0,0,1.0,0.0

A smatpi file has a termination block under every splitting (for sym_sys,
the half step G_half and exact zeros) and, under sym_env and sym_sys, an
aux0 block, its tail; a ttm file holds the midpoint block alone.  The
``flavor`` and ``r_max`` headers restate the blocks, and a file whose
headers disagree with its blocks is refused.  Header keys the loader does
not read are ignored.

Entry lines are ``k,row,col,re,im`` with re/im printed as the shortest
decimal that round-trips the binary double (Python ``repr``), so
load(save(x)) reproduces the in-memory values bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np

from .config import read_text
from .errors import ValidationError
from .kernels import FLAVORS, KernelSet

FORMAT_VERSION = 1


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
    lines += [f"meta.{key} = {value}" for key, value in (metadata or {}).items()]
    cells = list(itertools.product(range(kset.dim), repeat=2))
    for name in ("midpoint", "termination", "aux0"):
        if (mats := getattr(kset, name)) is not None:
            lines.append(f"matrices = {name}")
            for k, m in enumerate(mats.reshape(-1, kset.dim, kset.dim), start=1):
                lines += [f"{k},{row},{col},{re!r},{im!r}" for (row, col), re, im
                          in zip(cells, m.real.ravel().tolist(), m.imag.ravel().tolist())]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_kernels(path) -> KernelSet:
    """Read a KernelSet written by save_kernels; exact elementwise round trip.

    Raises ``parse:`` for malformed files (text that is not UTF-8
    included), for a repeated header key, matrices block or k,row,col
    entry, for r_max or flavor headers that disagree with the blocks, and
    for contents that KernelSet rejects: non-finite entries, termination
    and midpoint counts that differ, an aux0 that is not (dim, dim), an
    unknown splitting, or an aux0 block that the splitting and flavor rule
    out or need and the file lacks.
    """
    header = {}
    blocks = {}
    current = None
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        if "=" in line and "," not in line:
            key, _, value = map(str.strip, line.partition("="))
            if key == "matrices":
                if value not in ("midpoint", "termination", "aux0"):
                    raise ValidationError(f"parse: line {lineno}: unknown block {value!r}")
                if value in blocks:
                    raise ValidationError(f"parse: line {lineno}: duplicate block {value!r}")
                current = value
                blocks[current] = {}
            else:
                if key in header:
                    raise ValidationError(f"parse: line {lineno}: duplicate header key {key!r}")
                header[key] = value
            continue
        if current is None:
            raise ValidationError(f"parse: line {lineno}: entry before any matrices block")
        parts = line.split(",")
        if len(parts) != 5:
            raise ValidationError(f"parse: line {lineno}: expected k,row,col,re,im")
        try:
            k, row, col = map(int, parts[:3])
            re, im = map(float, parts[3:])
        except ValueError:
            raise ValidationError(f"parse: line {lineno}: bad numeric field") from None
        entries = blocks[current].setdefault(k, {})
        if (row, col) in entries:
            raise ValidationError(f"parse: line {lineno}: duplicate entry {k},{row},{col}")
        entries[(row, col)] = complex(re, im)

    try:
        version = int(header["format_version"])
    except (KeyError, ValueError):
        raise ValidationError("parse: missing or bad format_version header") from None
    if version != FORMAT_VERSION:
        raise ValidationError(f"version: unsupported format_version {version}")

    try:
        flavor = header["flavor"]
        splitting = header["splitting"]
        dt = float(header["dt"])
        r_max = int(header["r_max"])
        dim = int(header["dim"])
    except (KeyError, ValueError):
        raise ValidationError("parse: missing or bad header field") from None
    if dim < 1:
        raise ValidationError(f"parse: dim {dim} must be >= 1")

    def build(block):
        """The block's matrices 1..K as one (K, dim, dim) array."""
        for k in range(1, len(block) + 1):  # sized from the file before allocating
            if k not in block:
                raise ValidationError(f"parse: missing matrix index {k}")
            if len(block[k]) != dim * dim:
                raise ValidationError(f"parse: matrix {k} has {len(block[k])} of {dim * dim} entries")
        mats = np.zeros((len(block), dim, dim), dtype=complex)
        for k, entries in block.items():
            for (row, col), v in entries.items():
                if not (0 <= row < dim and 0 <= col < dim):
                    raise ValidationError(f"parse: entry ({row},{col}) out of range for dim {dim}")
                mats[k - 1, row, col] = v
        return mats

    if "midpoint" not in blocks or not blocks["midpoint"]:
        raise ValidationError("parse: no midpoint matrices")
    midpoint = build(blocks["midpoint"])
    termination = build(blocks["termination"]) if "termination" in blocks else None
    aux0 = build(blocks["aux0"]) if "aux0" in blocks else None
    if aux0 is not None and len(aux0) != 1:
        raise ValidationError(f"parse: aux0 block holds {len(aux0)} matrices, expected 1")

    if r_max != len(midpoint):
        raise ValidationError(f"parse: inconsistent kernel file (r_max {r_max} but"
                              f" {len(midpoint)} midpoint matrices)")
    if flavor not in FLAVORS:
        raise ValidationError(f"parse: inconsistent kernel file (unknown flavor {flavor!r})")
    if (flavor == "smatpi") != (termination is not None):
        held = "with" if termination is not None else "without"
        raise ValidationError(f"parse: inconsistent kernel file ({flavor} {splitting} kernels"
                              f" {held} termination matrices)")
    try:  # what KernelSet itself refuses is a bad file too
        return KernelSet(splitting, dt, midpoint, termination, None if aux0 is None else aux0[0])
    except ValidationError as exc:
        raise ValidationError(f"parse: inconsistent kernel file ({exc})") from None
