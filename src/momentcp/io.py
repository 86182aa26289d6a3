"""Observation file formats and result serialization.

CSV files hold one observation per row (``p`` rows of ``n`` comma-separated
values), i.e. the transpose of the in-memory matrix ``V``.  numpy's C reader
parses them: fields may be quoted and padded with whitespace, line ends may
be LF or CRLF, and numbers follow C's syntax (``1_000`` does not parse).
Rows of only commas, whitespace and quotes are skipped, and line 1 is a
header when it does not parse as numbers; a UTF-8 byte-order mark before it
is dropped.  The binary format is: magic
``MOMV``, little-endian u32 version (1), u64 ``n``, u64 ``p``, then
``n * p`` little-endian float64 values in column-major order (each
observation contiguous), and nothing after them.  A binary read maps the
file read-only instead of copying it, so ``V`` is a read-only view of the
file's pages, and ``np.array(obs.V)`` gives a writable copy.  A binary write
makes a new file and renames it over the old one, so writing a set back to
the file it was read from is safe: the mapping keeps the old file.  The file
must not be truncated or rewritten in place by other means while the set is
in use; a truncated mapping faults with ``SIGBUS``.  Solutions
are written as a self-describing JSON record; round-trips are lossless for
finite doubles.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import secrets
import stat
import string
import struct
from array import array
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


# numpy's C reader, with the quoting of the csv module and no comment character
_CSV = dict(delimiter=",", quotechar='"', comments=None)
# a row made only of these characters holds no values and is skipped
_BLANK = string.whitespace + ',"'


def _parses(line: str) -> bool:
    """Whether ``line`` on its own is a row of numbers.  A quote left open
    would join it to the next line, which fails only when read together."""
    if line.count('"') % 2:
        return False
    try:
        np.loadtxt([line], **_CSV)
    except ValueError:
        return False
    return True


def _data_lines(fh, path: str, linenos: array):
    """Yield the data rows of ``fh`` and append each one's file line number
    to ``linenos``: blank rows are dropped, and line 1 is a header when it
    does not parse as numbers.  Commas are counted to reject ragged rows."""
    width = None
    for lineno, line in enumerate(fh, start=1):
        if not line.strip(_BLANK) or (lineno == 1 and not _parses(line)):
            continue
        commas = line.count(",")
        if width is None:
            width = commas
        elif commas != width:
            raise ParseError(
                f"{path}: row {lineno}: expected {width + 1} values, got {commas + 1}"
            )
        linenos.append(lineno)
        yield line


def read_observations_csv(path: str) -> ObservationSet:
    """Parse the data rows with numpy's C reader straight into one ``p x n``
    array, so that the read needs little more memory than ``V`` itself."""
    linenos = array("q")  # 8 bytes a row, not a list's 40
    with open(path, encoding="utf-8-sig") as fh:  # drops a byte-order mark
        # rows are at most lines: with max_rows, loadtxt allocates M once, and
        # numpy advises so large a block into huge pages (each TTSV sweeps V)
        max_rows = sum(1 for _ in fh)
        fh.seek(0)
        rows = _data_lines(fh, path, linenos)
        first = next(rows, None)
        if first is None:
            raise ParseError(f"{path}: no observations found")
        try:
            M = np.loadtxt(itertools.chain([first], rows), ndmin=2, max_rows=max_rows, **_CSV)
        except ParseError:  # a ragged row, from _data_lines
            raise
        except ValueError:
            # the C reader reads ahead, so find the row again, one row at a time
            fh.seek(0)
            recorded = set(linenos)
            bad = next(
                k for k, line in enumerate(fh, start=1)
                if k in recorded and not _parses(line)
            )
            raise ParseError(f"{path}: row {bad}: non-numeric value") from None
    try:
        return ObservationSet(M.T)
    except ValueError:
        # ObservationSet's scan is the only one; locate the entry once it fails
        bad = np.argwhere(~np.isfinite(M))
        if not bad.size:
            raise
        raise ValueError(
            f"{path}: non-finite value at row {linenos[bad[0, 0]]}, column {bad[0, 1] + 1}"
        ) from None


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
        # checked before anything is mapped; the offset is where the
        # payload ends or, when values follow it, where they start
        want, have = 8 * n * p, os.fstat(fh.fileno()).st_size - 24
        if have != want:
            raise ParseError(
                f"{path}: expected {n * p} values ({want} bytes) after the header, "
                f"got {have} bytes (byte offset {24 + min(have, want)})"
            )
        # a plain ndarray view of the mapping, which keeps the mapping open
        V = np.asarray(np.memmap(fh, dtype="<f8", mode="r", offset=24, shape=(n, p), order="F"))
    try:
        return ObservationSet(V)
    except ValueError:
        if np.isfinite(V).all():  # an empty payload, not a bad value
            raise
        raise ValueError(f"{path}: non-finite value in payload") from None


def write_observations_binary(path: str, obs: ObservationSet) -> None:
    """Write ``obs`` to ``path`` in the MOMV format.

    The bytes go to a new file beside ``path`` (beside its target, when
    ``path`` is a symlink), which then takes ``path``'s place and mode.  So
    a set read from ``path``, whose ``V`` maps the old file, can be written
    back to it, and a write that fails leaves ``path`` as it was.
    """
    target = os.path.realpath(path)
    tmp = f"{target}.{secrets.token_hex(6)}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<IQQ", BINARY_VERSION, obs.n, obs.p))
            np.ascontiguousarray(obs.V.ravel(order="F"), dtype="<f8").tofile(fh)
        if os.path.exists(target):
            os.chmod(tmp, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


@dataclass
class SolutionRecord:
    """Self-describing record of one decomposition solution.

    ``A_row_major`` flattens the ``n x r_hat`` factor matrix row by row.
    ``iterations`` and ``wall_time_s`` are sums over every start that
    returned a run, not only the best one; ``wall_time_s`` also counts the
    set-up the starts share (``RunReport.setup_time``).
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
