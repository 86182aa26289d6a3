"""Observation file formats and result serialization.

CSV files hold one observation per row (``p`` rows of ``n`` comma-separated
values, optional header row), i.e. the transpose of the in-memory matrix
``V``.  The binary format is: magic ``MOMV``, little-endian u32 version (1),
u64 ``n``, u64 ``p``, then ``n * p`` little-endian float64 values in
column-major order (each observation contiguous).  Solutions are written as
a self-describing JSON record; round-trips are lossless for finite doubles.
"""

from __future__ import annotations

import csv
import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from momentcp.dense import ObservationSet

MAGIC = b"MOMV"
BINARY_VERSION = 1


class ParseError(ValueError):
    """An observation file could not be parsed; the message carries the location."""


def read_observations(path: str) -> ObservationSet:
    """Load observations from ``path``, auto-detecting binary (magic) vs CSV."""
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == MAGIC:
        return read_observations_binary(path)
    return read_observations_csv(path)


def read_observations_csv(path: str) -> ObservationSet:
    """Parse rows straight into a preallocated ``p x n`` array, one row at a
    time, so that the read needs little more memory than ``V`` itself."""
    with open(path, newline="") as fh:
        lines = sum(1 for _ in fh)  # rows are at most lines
        fh.seek(0)
        M = None
        k = 0
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not "".join(row).strip():
                continue
            if M is None:
                M = np.empty((lines - lineno + 1, len(row)))
            elif len(row) != M.shape[1]:
                raise ParseError(
                    f"{path}: row {lineno}: expected {M.shape[1]} values, got {len(row)}"
                )
            try:
                M[k] = row
            except ValueError:
                if lineno == 1:
                    M = None  # optional header, which sets no width
                    continue
                raise ParseError(f"{path}: row {lineno}: non-numeric value") from None
            k += 1
    if not k:
        raise ParseError(f"{path}: no observations found")
    M = M[:k]
    if not np.isfinite(M).all():
        bad = np.argwhere(~np.isfinite(M))[0]
        raise ValueError(f"{path}: non-finite value at row {bad[0] + 1}, column {bad[1] + 1}")
    return ObservationSet(M.T)


def write_observations_csv(path: str, obs: ObservationSet) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for ell in range(obs.p):
            writer.writerow([repr(float(v)) for v in obs.V[:, ell]])


def read_observations_binary(path: str) -> ObservationSet:
    with open(path, "rb") as fh:
        header = fh.read(24)
        if len(header) < 24 or header[:4] != MAGIC:
            raise ParseError(f"{path}: bad or truncated header (byte offset 0)")
        version, n, p = struct.unpack("<IQQ", header[4:24])
        if version != BINARY_VERSION:
            raise ParseError(f"{path}: unsupported version {version} (byte offset 4)")
        data = np.fromfile(fh, dtype="<f8", count=n * p)
    if data.size != n * p:
        raise ParseError(
            f"{path}: expected {n * p} values, got {data.size} "
            f"(byte offset {24 + 8 * data.size})"
        )
    V = data.reshape((n, p), order="F")
    if not np.isfinite(V).all():
        raise ValueError(f"{path}: non-finite value in payload")
    return ObservationSet(V)


def write_observations_binary(path: str, obs: ObservationSet) -> None:
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQQ", BINARY_VERSION, obs.n, obs.p))
        np.ascontiguousarray(obs.V.ravel(order="F"), dtype="<f8").tofile(fh)


@dataclass
class SolutionRecord:
    """Self-describing record of one decomposition solution.

    ``A_row_major`` flattens the ``n x r_hat`` factor matrix row by row.
    ``iterations`` and ``wall_time_s`` are sums over every start that
    returned a run, not only the best one.
    """

    d: int
    n: int
    p: int
    r_hat: int
    lam: list[float]
    A_row_major: list[float]
    final_f: float
    alpha: float
    grad_inf_norm: float
    iterations: int
    wall_time_s: float
    seed: int
    tool_version: str

    def factor_matrix(self) -> np.ndarray:
        return np.asarray(self.A_row_major, dtype=float).reshape(self.n, self.r_hat)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SolutionRecord":
        payload = json.loads(text)
        return cls(**payload)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "SolutionRecord":
        with open(path) as fh:
            return cls.from_json(fh.read())
