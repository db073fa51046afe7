"""Output checks, run outside the timed region.

The files are parsed here, not with the program's own loaders, so a defect
in a loader cannot hide a defect in a writer.
"""

from __future__ import annotations

import csv
import math

import numpy as np

TRACE_TOL = 1e-10
HERMITIAN_TOL = 1e-10
CLOSED_FORM_TOL = 1e-12
TEXT_COLUMNS = ("set", "note")  # label columns of comparison_summary.csv, gqme_kernel_norms.csv


class CheckError(Exception):
    """An artifact is missing, malformed, non-finite or physically wrong."""


def _finite(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckError(f"{where}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise CheckError(f"{where}: non-finite value {text!r}")
    return value


def check_csv(path: str) -> None:
    """One header row; every cell outside a label column is empty or a finite number."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2:
        raise CheckError(f"{path}: no data rows")
    header = rows[0]
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise CheckError(f"{path}:{lineno}: {len(row)} cells, header has {len(header)}")
        for column, cell in zip(header, row):
            if cell and column not in TEXT_COLUMNS:
                _finite(cell, f"{path}:{lineno}")


def read_kernel_file(path: str) -> dict:
    """Header fields and complete, finite (k, dim, dim) blocks of a kernel file."""
    header, entries, block = {}, {}, None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if "," not in line:
                key, sep, value = line.partition("=")
                if not sep:
                    raise CheckError(f"{path}:{lineno}: expected 'key = value'")
                if key.strip() == "matrices":
                    block = value.strip()
                    entries[block] = {}
                else:
                    header[key.strip()] = value.strip()
                continue
            parts = line.split(",")
            if block is None or len(parts) != 5:
                raise CheckError(f"{path}:{lineno}: bad entry line")
            k, row, col = (int(p) for p in parts[:3])
            where = f"{path}:{lineno}"
            entries[block][(k, row, col)] = complex(_finite(parts[3], where), _finite(parts[4], where))
    try:
        dim, r_max = int(header["dim"]), int(header["r_max"])
    except (KeyError, ValueError):
        raise CheckError(f"{path}: missing dim or r_max header") from None
    if "midpoint" not in entries:
        raise CheckError(f"{path}: no midpoint block")
    blocks = {}
    for name, values in entries.items():
        count = 1 if name == "aux0" else r_max
        if len(values) != count * dim * dim:
            raise CheckError(f"{path}: block {name} has {len(values)} of {count * dim * dim} entries")
        mats = np.zeros((count, dim, dim), dtype=complex)
        for (k, row, col), v in values.items():
            if not (1 <= k <= count and 0 <= row < dim and 0 <= col < dim):
                raise CheckError(f"{path}: block {name} entry ({k},{row},{col}) out of range")
            mats[k - 1, row, col] = v
        blocks[name] = mats
    return {"header": header, "blocks": blocks}


def check_asym_closed_form(kfile: dict, reference: tuple) -> None:
    """asym T_1, T_2 (termination, or the single ttm set) equal the closed forms."""
    blocks = kfile["blocks"]
    mats = blocks.get("termination", blocks["midpoint"])
    for k, ref in enumerate(reference, start=1):
        dev = float(np.max(np.abs(mats[k - 1] - ref)))
        if not dev <= CLOSED_FORM_TOL:
            raise CheckError(f"asym T_{k} differs from the closed form by {dev:.3e}")


def check_trajectory(path: str) -> None:
    """Finite rows; every propagated rho has trace 1 and is Hermitian."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise CheckError(f"{path}: {exc}") from None
    if data.shape[1] != len(header) or not np.all(np.isfinite(data)):
        raise CheckError(f"{path}: malformed or non-finite rows")
    n = math.isqrt(sum(h.startswith("re_rho_") for h in header))
    cols = [header.index(f"{part}_rho_{i}_{j}") for i in range(n) for j in range(n)
            for part in ("re", "im")]
    flat = data[:, cols[0::2]] + 1j * data[:, cols[1::2]]
    rho = flat.reshape(-1, n, n)
    trace_dev = float(np.max(np.abs(np.trace(rho, axis1=1, axis2=2) - 1.0)))
    herm_dev = float(np.max(np.abs(rho - rho.conj().transpose(0, 2, 1))))
    if not trace_dev <= TRACE_TOL:
        raise CheckError(f"{path}: trace drifts from 1 by {trace_dev:.3e}")
    if not herm_dev <= HERMITIAN_TOL:
        raise CheckError(f"{path}: Hermiticity violated by {herm_dev:.3e}")
