"""Domain types for finitely supported measures and kernels, and their costs.

Points live in R^n and are stored as rows of float64 arrays. A
DiscreteDistribution pairs a support array with a normalized weight vector; a
DiscreteKernel is a row-stochastic matrix over one support, a row per source
point; a DiscreteSystem chains kernels over per-stage supports.
All containers are frozen and their arrays are marked read-only, so instances
can be shared freely across workers.

The ground metric is Euclidean; every optimization in this package consumes
p-th powers of distances, which distance_power computes.

It also owns the artifact formats: the JSON codecs, the system file
(system_to_dict writes it, load_system reads it) and the CSV writer.
"""

from __future__ import annotations

import json
import mmap
import numbers
import os
import re
import stat
from dataclasses import dataclass
from itertools import chain, islice
from types import SimpleNamespace

import numpy as np

from .errors import ValidationError

WEIGHT_TOL = 1e-12
CSV_BLOCK_ROWS = 128


def as_points(points) -> np.ndarray:
    """Coerce a sequence of points into a read-only (n, dim) float64 array.

    The data is copied, so freezing never affects the caller's array.
    Raises ValidationError if any coordinate is NaN or infinite.
    """
    arr = np.array(points, dtype=np.float64, order="C")
    if arr.ndim == 1:
        arr = arr.reshape(1, -1) if arr.size else arr.reshape(0, 1)
    if arr.ndim != 2:
        raise ValidationError(
            f"points must form a 2-D array, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError("point coordinates must be finite")
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, order="C")
    out.flags.writeable = False
    return out


def _check_weights(weights: np.ndarray):
    """Finite, nonnegative, and each vector along the last axis summing to 1
    within WEIGHT_TOL."""
    if not np.all(np.isfinite(weights)):
        raise ValidationError("weights must be finite")
    if np.any(weights < 0):
        raise ValidationError("weights must be nonnegative")
    totals = np.sum(weights, axis=-1).ravel()
    off = totals[np.abs(totals - 1.0) > WEIGHT_TOL]
    if len(off):
        raise ValidationError(
            f"weights sum to {float(off[0])!r}, expected 1 within {WEIGHT_TOL}"
        )


def merge_atoms(points: np.ndarray):
    """Distinct points in first-seen order, and the index of each input
    point among them. Exactly equal points are one atom, 0.0 and -0.0
    alike; an atom keeps the coordinates of its first occurrence."""
    _, first, label = np.unique(
        points + 0.0, axis=0, return_index=True, return_inverse=True
    )
    rank = np.argsort(np.argsort(first))
    return points[np.sort(first)], rank[label.ravel()]


@dataclass(frozen=True)
class DiscreteDistribution:
    """A finitely supported probability measure sum_i w_i * delta_{x_i}.

    support has shape (n, dim); weights has shape (n,), is nonnegative, and
    sums to 1 within WEIGHT_TOL. Support points need not be distinct.
    """

    support: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        support = as_points(self.support)
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.ndim != 1:
            raise ValidationError("weights must be a 1-D array")
        if len(support) != len(weights):
            raise ValidationError(
                f"{len(support)} support points but {len(weights)} weights"
            )
        _check_weights(weights)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", _freeze(weights))

    def __len__(self) -> int:
        return len(self.weights)

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    def atoms(self):
        """Iterate (point, weight) pairs."""
        return zip(self.support, self.weights)


@dataclass(frozen=True)
class DiscreteKernel:
    """A discrete stochastic kernel: row s of the (n, m) row-stochastic
    matrix is the next-state distribution from source s over the m points
    of one common support (from_rows takes rows on distinct supports)."""

    sources: np.ndarray
    support: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        sources = as_points(self.sources)
        support = as_points(self.support)
        matrix = _freeze(self.matrix)
        shape = (len(sources), len(support))
        if matrix.shape != shape:
            raise ValidationError(f"matrix {matrix.shape}, needs {shape}")
        _check_weights(matrix)
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def from_rows(cls, sources, rows) -> "DiscreteKernel":
        """Kernel from one row (support and weights, as in a distribution)
        per source on any supports, put on their union (merge_atoms) once per
        run of rows on an equal support; a repeated atom sums its weights."""
        blocks = []  # (support points, weights of each row on it)
        last = None
        for row in rows:
            if row.support is not last:
                last, points = row.support, as_points(row.support)
                if not blocks or not np.array_equal(points, blocks[-1][0]):
                    blocks.append((points, []))
            blocks[-1][1].append(np.asarray(row.weights, np.float64))
        if not blocks:
            raise ValidationError("a kernel needs at least one row")
        support, columns = merge_atoms(np.concatenate([b[0] for b in blocks]))
        m, n, cells, masses = len(support), 0, [], []
        for points, ws in blocks:
            if any(np.shape(w) != (len(points),) for w in ws):
                raise ValidationError("a row needs one weight per point")
            cols, columns = columns[: len(points)], columns[len(points) :]
            cells.append(np.arange(n, n + len(ws))[:, None] * m + cols)
            masses.append(ws)
            n += len(ws)
        # bincount adds in input order: a repeated atom sums as a running total
        matrix = np.bincount(
            np.concatenate(cells, axis=None),
            np.concatenate(masses, axis=None),
            minlength=n * m,
        )
        return cls(sources, support, matrix.reshape(n, m))

    @property
    def rows(self) -> tuple:
        """Each row as a DiscreteDistribution on the common support."""
        return tuple(DiscreteDistribution(self.support, w) for w in self.matrix)

    def __len__(self) -> int:
        return len(self.matrix)


@dataclass(frozen=True)
class DiscreteSystem:
    """A fully discrete Markov system: supports X_0..X_T and one kernel per
    transition, kernel t with one row per point of X_t.

    A compressed system also carries its marginals (T+1, marginal t on
    X_t) and its stage errors Delta_0..Delta_{T-1}; either may be empty.
    Supports are finite, nonempty and read-only, and every support and
    kernel support has the dimension of support 0. Every count and source
    is checked here, so a system that exists is consistent.
    """

    supports: tuple
    kernels: tuple
    marginals: tuple = ()
    deltas: tuple = ()

    def __post_init__(self):
        supports = tuple(as_points(s) for s in self.supports)
        kernels = tuple(self.kernels)
        marginals = tuple(self.marginals)
        deltas = tuple(float(d) for d in self.deltas)
        if len(supports) != len(kernels) + 1:
            raise ValidationError(
                f"{len(supports)} supports need {len(supports) - 1} kernels, "
                f"got {len(kernels)}"
            )
        dim = supports[0].shape[1]
        for t, support in enumerate(supports):
            if len(support) == 0:
                raise ValidationError(f"support {t} has no points")
            if support.shape[1] != dim:
                raise ValidationError(f"support {t} is {support.shape[1]}-D,"
                                      f" support 0 is {dim}-D")
        for t, kernel in enumerate(kernels):
            if kernel.support.shape[1] != dim:
                raise ValidationError(
                    f"kernel {t} support is {kernel.support.shape[1]}-D,"
                    f" support 0 is {dim}-D")
            if len(kernel) != len(supports[t]):
                raise ValidationError(
                    f"kernel {t} has {len(kernel)} rows for "
                    f"{len(supports[t])} points of support {t}"
                )
            if not np.array_equal(kernel.sources, supports[t]):
                raise ValidationError(
                    f"kernel {t} sources do not match support {t}"
                )
        if marginals and len(marginals) != len(supports):
            raise ValidationError(
                f"{len(supports)} supports need {len(supports)} marginals, "
                f"got {len(marginals)}"
            )
        for t, marginal in enumerate(marginals):
            if not np.array_equal(marginal.support, supports[t]):
                raise ValidationError(
                    f"marginal {t} does not live on support {t}"
                )
        if deltas and len(deltas) != len(kernels):
            raise ValidationError(
                f"{len(kernels)} kernels need {len(kernels)} deltas, "
                f"got {len(deltas)}"
            )
        if not np.all(np.isfinite(deltas)):
            raise ValidationError("deltas must be finite")
        object.__setattr__(self, "supports", supports)
        object.__setattr__(self, "kernels", kernels)
        object.__setattr__(self, "marginals", marginals)
        object.__setattr__(self, "deltas", deltas)

    @property
    def horizon(self) -> int:
        return len(self.kernels)

    @property
    def dim(self) -> int:
        return self.supports[0].shape[1]


def dirac(point) -> DiscreteDistribution:
    """The unit mass at a single point."""
    return DiscreteDistribution(as_points([np.asarray(point, dtype=float).ravel()]), [1.0])


def compose_marginal(lam: DiscreteDistribution, kernel: DiscreteKernel) -> DiscreteDistribution:
    """Push a marginal through a kernel: the mixture lam @ P on the
    kernel's support.

    lam.support must equal kernel.sources (same points, same order). The
    mass at each atom is the sum of lam_s * P[s] in row order.
    """
    if not np.array_equal(lam.support, kernel.sources):
        raise ValidationError("marginal support does not match kernel sources")
    # a reduction over the first axis adds the rows one after another
    weights = (lam.weights[:, None] * kernel.matrix).sum(axis=0)
    return DiscreteDistribution(kernel.support, weights)


def distance_power(a, b, order: float) -> np.ndarray:
    """|a - b|^order over the last axis, a broadcast against b: the
    Euclidean length of each difference raised to the p-th power. The
    squares are added coordinate by coordinate through one reused
    difference buffer, so no (..., dim) difference array is formed; this is
    the package's one distance kernel."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    sq = np.zeros(shape)
    diff = np.empty(shape)
    for j in range(a.shape[-1]):
        np.subtract(a[..., j], b[..., j], out=diff)
        diff *= diff
        sq += diff
    if order != 2:
        np.sqrt(sq, out=sq)
        if order != 1:
            sq **= order
    return sq


def pairwise_cost(a, b, order: float) -> np.ndarray:
    """Euclidean distances raised to the p-th power, entry (i, k) = |a_i - b_k|^p:
    distance_power's (n, m) array over every pair, so an entry has the bits
    of distance_power on that one pair. Each point array is frozen by
    as_points; an order below 1, points of two dimensions or a cost that
    overflows to infinity raises ValidationError."""
    return frozen_pairwise_cost(as_points(a), as_points(b), order)


def frozen_pairwise_cost(a: np.ndarray, b: np.ndarray,
                         order: float) -> np.ndarray:
    """pairwise_cost of two arrays that as_points made, with its checks but
    without copying or scanning a or b again."""
    if order < 1:
        raise ValidationError(f"order p must be >= 1, got {order}")
    if a.shape[1] != b.shape[1]:
        raise ValidationError(
            f"point dimensions differ: {a.shape[1]} vs {b.shape[1]}"
        )
    with np.errstate(over="ignore"):  # refused below, not warned of
        costs = distance_power(a[:, None], b[None], order)
    if not np.all(np.isfinite(costs)):
        raise ValidationError("cost entries must be finite")
    return costs


# ---------------------------------------------------------------------------
# artifact formats: the JSON codecs, the system file and the CSV writer
# ---------------------------------------------------------------------------

# numpy reads "1.0", "0", true and null as floats: the readers refuse them
_NOT_A_NUMBER = "a string or boolean, null or object where a number belongs"


def _numbers(value):
    """value, from a config or a system file, when it is a number or nested
    lists of numbers, a number being a numbers.Real that is not a bool;
    anything else raises ValidationError. The lists are checked a level at
    a time and a type at a time, and an array, which only the system file's
    cursor puts there (as float64), is not scanned."""
    if type(value) is np.ndarray:
        return value
    level = [value]
    while kinds := set(map(type, level)):
        if not all(kind in (list, np.ndarray) or kind is not bool
                   and issubclass(kind, numbers.Real) for kind in kinds):
            raise ValidationError(_NOT_A_NUMBER)
        level = list(chain.from_iterable(v for v in level if type(v) is list)
                     if list in kinds else ())
    return value


def distribution_to_dict(dist: DiscreteDistribution) -> dict:
    return {
        "support": dist.support.tolist(),
        "weights": dist.weights.tolist(),
    }


def distribution_from_dict(data: dict) -> DiscreteDistribution:
    return DiscreteDistribution(_numbers(data["support"]),
                                _numbers(data["weights"]))


def rows_to_dict(sources, rows) -> dict:
    """The kernel file schema from lists: the source points and one
    (support, weights) pair per source, each row on its own support."""
    return {"sources": sources,
            "rows": [{"support": s, "weights": w} for s, w in rows]}


def kernel_to_dict(kernel: DiscreteKernel) -> dict:
    """The file schema: every row is written on the common support."""
    support = kernel.support.tolist()
    return rows_to_dict(kernel.sources.tolist(),
                        ((support, w) for w in kernel.matrix.tolist()))


def kernel_from_dict(data: dict) -> DiscreteKernel:
    rows = (SimpleNamespace(support=_numbers(r["support"]),
                            weights=_numbers(r["weights"]))
            for r in data["rows"])
    return DiscreteKernel.from_rows(_numbers(data["sources"]), rows)


def system_to_dict(system: DiscreteSystem) -> dict:
    """JSON-ready form: per-stage supports, kernel rows, marginals, deltas."""
    return {
        "supports": [s.tolist() for s in system.supports],
        "kernels": [kernel_to_dict(k) for k in system.kernels],
        "marginals": [distribution_to_dict(m) for m in system.marginals],
        "deltas": [float(d) for d in system.deltas],
    }


def system_from_dict(data: dict) -> DiscreteSystem:
    """Inverse of system_to_dict, validated as distributions and as a
    DiscreteSystem; a malformed document raises ValidationError."""
    if not isinstance(data, dict):
        raise ValidationError("a system must be a JSON object")
    try:
        for key in ("supports", "kernels", "marginals", "deltas"):
            if not isinstance(data[key], list):
                raise ValidationError(f"system key {key!r} must be a list")
        return DiscreteSystem(
            _numbers(data["supports"]),
            tuple(kernel_from_dict(k) for k in data["kernels"]),
            tuple(distribution_from_dict(m) for m in data["marginals"]),
            _numbers(data["deltas"]),
        )
    except KeyError as exc:
        raise ValidationError(f"system lacks key {exc.args[0]!r}") from None
    except ValidationError:
        raise
    # ValueError: a ragged list; OverflowError: an int past float64's range
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed system: {exc}") from None


_WS = r"[ \t\n\r]*"
_WHITESPACE = re.compile(_WS)
# a member's name and its colon, each with the whitespace before it; a name
# written with an escape is read by json.loads instead
_KEY = re.compile(_WS + r'"([a-z]+)"' + _WS + ":")
# the parts of a kernel row or a marginal as system_to_dict writes them,
# {"support": S, "weights": W}, each with the whitespace before it
_ROW_OPEN = re.compile(_WS + r'\{' + _WS + r'"support"' + _WS + ":" + _WS)
_ROW_WEIGHTS = re.compile(_WS + "," + _WS + r'"weights"' + _WS + ":" + _WS)
_ROW_CLOSE = re.compile(_WS + r"\}")
# decoded supports kept for each text of a first point; a bound on the
# texts compared at one position when many supports begin alike
_SHARED_PER_POINT = 4
_DECODER = json.JSONDecoder()


class _Unread(Exception):
    """Text the system file's cursor does not read: json.loads reads it."""


class _SystemReader:
    """A cursor over a system file in system_to_dict's layout, its members
    in any order and spacing, the last of a repeated key kept. Supports and
    weights are read as float64 arrays, each support text decoded once per
    file, and every value is decoded by json's own scanner, so what it reads
    means what it means to json.loads. Any other text (an unknown key, a row
    in another form, a value in another place or a syntax fault) raises
    _Unread, TypeError or ValueError."""

    def __init__(self, text: str):
        self.text, self.pos = text, 0
        # the text through a support's first point: that support's
        # (text, array) pairs, latest last
        self.supports = {}

    def skip(self) -> int:
        """Move past whitespace; returns the new position."""
        self.pos = _WHITESPACE.match(self.text, self.pos).end()
        return self.pos

    def _take(self, char: str) -> bool:
        if self.text.startswith(char, self.skip()):
            self.pos += 1
            return True
        return False

    def _match(self, pattern):
        if (part := pattern.match(self.text, self.pos)) is None:
            raise _Unread
        self.pos = part.end()
        return part

    def numbers(self):
        """The value at the cursor, unread if it holds a string ('"'), true
        ('r'), false ('s') or null ('l'): no number, NaN or Infinity holds
        those."""
        text, start = self.text, self.skip()
        value, end = _DECODER.raw_decode(text, start)
        if max(text.find('"', start, end), text.find("r", start, end),
               text.find("s", start, end), text.find("l", start, end)) >= 0:
            raise _Unread
        self.pos = end
        return value

    def _items(self, open_: str, close: str):
        # yield with the cursor at each item
        if not self._take(open_):
            raise _Unread
        if self._take(close):
            return
        while True:
            yield
            if self._take(close):
                return
            if not self._take(","):
                raise _Unread

    def object(self, members: dict) -> dict:
        """The object at the cursor, members[key]() reading each member's
        value."""
        out = {}
        for _ in self._items("{", "}"):
            key = self._match(_KEY)[1]
            if key not in members:
                raise _Unread
            out[key] = members[key]()
        return out

    def array(self, read) -> list:
        """The array at the cursor, read() reading each element."""
        return [read() for _ in self._items("[", "]")]

    def support(self):
        """The bracketed support at the cursor as a float64 array. A text
        that repeats one decoded before, anywhere in the file, is skipped
        and shares its array: a bracketed text ends where its value ends,
        so a later text that begins with it holds the same value there."""
        text, start = self.text, self.skip()
        if not text.startswith("[", start):
            raise _Unread
        # a bracketed text holds a "]", so this is a prefix of the text
        point = text[start:text.find("]", start) + 1]
        seen = self.supports.get(point, ())
        for support, points in seen:
            if text.startswith(support, start):
                self.pos = start + len(support)
                return points
        points = self.floats()
        self.supports[point] = [*seen[1 - _SHARED_PER_POINT:],
                                (text[start:self.pos], points)]
        return points

    def floats(self):
        """The value at the cursor, read by numbers(), as a float64 array."""
        return np.asarray(self.numbers(), np.float64)

    def row(self) -> dict:
        """A kernel row or a marginal, {"support": S, "weights": W}, read
        through one match per part."""
        self._match(_ROW_OPEN)
        support = self.support()
        self._match(_ROW_WEIGHTS)
        weights = self.floats()
        self._match(_ROW_CLOSE)
        return {"support": support, "weights": weights}

    def _kernel(self) -> dict:
        return self.object({"sources": self.support,
                            "rows": lambda: self.array(self.row)})

    def document(self) -> dict:
        data = self.object({"supports": lambda: self.array(self.support),
                            "kernels": lambda: self.array(self._kernel),
                            "marginals": lambda: self.array(self.row),
                            "deltas": self.numbers})
        if self.skip() != len(self.text):
            raise _Unread
        return data


def read_system_file(path) -> str:
    """The system file's text, decoded as UTF-8 (the encoding of a JSON
    text) with no newline translated: JSON reads a '\\r' as the whitespace
    it is. A nonempty regular file is mapped and decoded in place, so the
    read holds the mapped file and the text, never a copy of the bytes: 5 ms
    for a 23.7 MB file, against 25 for read() and one decode and 29 for a
    text-mode read. Any other file (a pipe, or an empty file, which cannot
    be mapped) is read whole. A file that another process cuts short while
    it is mapped ends this process with SIGBUS, as any mapped read does.
    Bytes that are not UTF-8 raise ValidationError naming the file."""
    try:
        with open(path, "rb") as fh:
            info = os.fstat(fh.fileno())
            if not stat.S_ISREG(info.st_mode) or info.st_size == 0:
                return fh.read().decode()
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as view:
                return str(view, "utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"system file {path}: {exc}") from None


def decode_system(text: str, path) -> DiscreteSystem:
    """The system in a system file's text (see load_system); a fault raises
    ValidationError naming the file, path."""
    try:
        try:
            data = _SystemReader(text).document()
        except (_Unread, TypeError, ValueError, OverflowError):
            data = json.loads(text)
        return system_from_dict(data)
    except ValueError as exc:  # json's JSONDecodeError, or ValidationError
        raise ValidationError(f"system file {path}: {exc}") from None


def load_system(path) -> DiscreteSystem:
    """Read a system file written from system_to_dict: the result is
    system_from_dict(json.load(f)), which validates it.

    read_system_file reads the file's text, and decode_system the system
    in it. A cursor reads system_to_dict's layout: the four system keys
    and each kernel's sources and rows, in any order, and each row and
    marginal written as {"support": S, "weights": W}, all in any spacing.
    Any other text is read by json.loads, so an invalid file or one in
    another layout is parsed twice. Every row of a kernel is written on
    the kernel's common support, so most of the file is one support text
    repeated. A support (of a row, a kernel's sources, a marginal or the
    supports list) whose bracketed text repeats one decoded before
    anywhere in the file is skipped and shares that float64 array, so each
    distinct support text is decoded once and each kernel merges its
    support once. What is left is json's decimal-to-double conversion of
    the row weights: on a dense 4x300 system (361.5k weights), about 89 ms
    of decode_system's ~110 ms (one core, Python 3.11).
    A file that is not JSON, holds a value that is not a number (a null, a
    string or a boolean included) or a system that system_from_dict refuses
    raises ValidationError naming the file, with json's or system_from_dict's
    message.
    """
    return decode_system(read_system_file(path), path)


def write_csv(path, header, rows):
    """Write header and rows, tuples of ints, floats and strings as long as
    the header, with csv.writer's bytes in UTF-8, CSV_BLOCK_ROWS rows at a
    time. A row of another length raises TypeError, and a field that csv
    would quote (holding ',', '"', '\r' or '\n', or the empty only field
    of a row) ValueError."""
    width = len(header)
    line = ",".join(["%s"] * width) + "\r\n"
    rows = chain([tuple(header)], rows)
    with open(path, "wb") as fh:
        while block := list(islice(rows, CSV_BLOCK_ROWS)):
            data = "".join(map(line.__mod__, block)).encode()
            # each line holds width - 1 commas, a "\r" and a "\n" of its own
            special = len(data) - len(data.translate(None, b',"\r\n'))
            if special != len(block) * (width + 1) or (
                    width == 1 and b"\n\r\n" in b"\n" + data):
                raise ValueError(f"{path}: a field needs CSV quoting")
            fh.write(data)
