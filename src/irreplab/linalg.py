"""Dense real symmetric matrices and their eigenvalues.

`SymMatrix` is the numeric carrier used everywhere else in the package;
it enforces finite entries and exact (bitwise) symmetry at construction.
`eigensolve` returns its ascending eigenvalues from LAPACK
(`numpy.linalg.eigvalsh`) as a read-only float64 array, the one
spectrum type of the package.

A plain text matrix format is defined for interchange: first line the
dimension, then one row of space-separated decimals per line.  Up to
dim + dim^2 / 16 distinct values are converted once in either direction.
The parser fills one array, symmetrizes it in place and reports the
largest asymmetry it had to repair.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import InvalidInputError, NumericFailureError

__all__ = [
    "SymMatrix",
    "eigensolve",
    "multiset_deviation",
    "write_matrix_text",
    "read_matrix_text",
]


class SymMatrix:
    """A dense real symmetric matrix with immutable storage.

    Parameters
    ----------
    values : array_like
        Square matrix, finite and symmetric to the bit.  Use
        :meth:`symmetrized` when the data carries floating-point asymmetry.
        A NaN or infinite entry raises ``InvalidInputError``.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        self._adopt(np.array(values, dtype=np.float64, copy=True))

    @classmethod
    def _adopting(cls, arr: np.ndarray, symmetrize: bool = False,
                  finite: bool = False) -> "SymMatrix":
        """A matrix keeping the float64 ``arr``, which nothing else holds,
        uncopied; ``symmetrize`` first makes it M/2 + M^T/2 in place unless
        it is symmetric to the bit.  ``finite``: the caller has checked
        every entry, so the finiteness scan is skipped."""
        return cls.__new__(cls)._adopt(arr, symmetrize, finite)

    def _adopt(self, arr: np.ndarray, symmetrize: bool = False,
               finite: bool = False) -> "SymMatrix":
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidInputError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise InvalidInputError("matrix dimension must be >= 1")
        if not finite and not np.isfinite(arr).all():
            raise InvalidInputError("matrix entries must be finite")
        if symmetrize and not np.array_equal(arr.view(np.uint64), arr.T.view(np.uint64)):
            arr *= 0.5
            arr += arr.T
        if not np.array_equal(arr, arr.T):
            raise InvalidInputError(
                "matrix is not exactly symmetric; use SymMatrix.symmetrized()"
            )
        arr.flags.writeable = False
        self._values = arr
        return self

    @classmethod
    def symmetrized(cls, values):
        """Build from possibly asymmetric data via M/2 + M^T/2.

        Data symmetric to the bit is kept as is.  Halving first keeps
        entries near the float range finite; the bits equal (M + M^T)/2
        unless that sum overflows or turns subnormal.
        """
        return cls._adopting(np.array(values, dtype=np.float64), symmetrize=True)

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def dim(self) -> int:
        return self._values.shape[0]

    def __getitem__(self, key):
        return self._values[key]

    def max_abs(self) -> float:
        """Largest entry magnitude, ||H||_max."""
        return float(np.max(np.abs(self._values)))

    def __repr__(self):
        return f"SymMatrix(dim={self.dim})"


def _as_sym(h) -> SymMatrix:
    return h if isinstance(h, SymMatrix) else SymMatrix(h)


def eigensolve(h) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, in a read-only float64 array.

    Parameters
    ----------
    h : SymMatrix or array_like
        Matrix to solve; arrays must be finite and exactly symmetric.

    Raises
    ------
    InvalidInputError
        An array that `SymMatrix` rejects: non-finite or not symmetric.
    NumericFailureError
        LAPACK failed.
    """
    h = _as_sym(h)
    try:
        eigenvalues = np.linalg.eigvalsh(h.values)
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"LAPACK eigensolver failed: {exc}") from exc
    eigenvalues.flags.writeable = False
    return eigenvalues


def multiset_deviation(a, b) -> float:
    """Largest elementwise gap between two ascending eigenvalue lists."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size != b.size:
        raise InvalidInputError(
            f"spectra have different sizes ({a.size} vs {b.size})"
        )
    if a.size == 0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or NaN for inf - inf
        return float(np.max(np.abs(a - b)))


class _Memo(dict):
    """Maps each key through ``convert`` once while it holds fewer than
    dim + dim^2 / 16 (about a dense copy), and then each time; invariant
    matrices of the polyhedra and of rings of n >= 5 sites stay under."""

    def __init__(self, convert, dim: int):
        self.convert = convert
        self.limit = dim + dim * dim // 16

    def __missing__(self, key):
        value = self.convert(key)
        if len(self) < self.limit:
            self[key] = value
        return value


def _word(bits: int) -> str:
    """The ``.17g`` word of the float64 with bit pattern ``bits``."""
    return format(struct.unpack("<d", struct.pack("<Q", bits))[0], ".17g")


def write_matrix_text(h, path) -> None:
    """Write a matrix in the text interchange format.

    Entries get 17 significant digits (``.17g``), the precision at which
    every float64 reads back bit for bit.  The conversion is correctly
    rounded, so each distinct bit pattern (-0.0 is not 0.0) is formatted
    once and its word reused: an invariant matrix repeats few values.
    """
    h = _as_sym(h)
    words = _Memo(_word, h.dim)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{h.dim}\n")
        for bits in h.values.view(np.uint64):
            fh.write(" ".join(map(words.__getitem__, bits.tolist())))
            fh.write("\n")


def read_matrix_text(path) -> tuple[SymMatrix, float]:
    """Read the text format; returns (matrix, max asymmetry repaired).

    Tokens take Python ``float`` syntax, and a non-ASCII byte makes its
    token malformed; repeats are parsed once (see `_Memo`).  Rows stream into
    one array that doubles as rows of the declared length arrive, never on
    the header alone: two dense copies at most, besides the tokens.  Blank
    lines are skipped, rows past the dimension counted, not kept.  The row
    count is checked before the rows; the repaired asymmetry must be finite.
    """
    bad = None
    found = 0
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = filter(None, map(str.strip, fh))
        header = next(lines, None)
        if header is None:
            raise InvalidInputError(f"{path}: empty matrix file")
        try:
            dim = int(header)
        except ValueError as exc:
            raise InvalidInputError(f"{path}: first line must be the dimension") from exc
        if dim < 1:
            raise InvalidInputError(f"{path}: dimension must be >= 1")
        m = np.empty((0, dim))
        floats = _Memo(float, dim)
        for found, line in enumerate(lines, 1):
            if found > dim or bad is not None:
                continue
            try:
                row = list(map(floats.__getitem__, line.split()))
            except ValueError as exc:
                bad = ("malformed number in row", exc)
                continue
            if len(row) != dim:
                bad = (f"row of length {len(row)}, expected {dim}", None)
                continue
            if found > len(m):  # in place: only this function holds m
                m.resize((min(2 * found, dim), dim), refcheck=False)
            m[found - 1] = row
    if found != dim:
        raise InvalidInputError(f"{path}: expected {dim} rows, found {found}")
    if bad is not None:
        raise InvalidInputError(f"{path}: {bad[0]}") from bad[1]
    # checked here, naming the file, before the asymmetry scan: inf - inf is NaN
    if not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{path}: matrix entries must be finite")
    # |M - M^T| is symmetric: 64-row blocks right of the diagonal (narrower read slowly)
    with np.errstate(over="ignore"):
        asym = max(float(np.max(np.abs(m[r:r + 64, r:] - m[r:, r:r + 64].T)))
                   for r in range(0, dim, 64))
    if not np.isfinite(asym):
        raise InvalidInputError(f"{path}: asymmetry beyond the float range")
    return SymMatrix._adopting(m, symmetrize=True, finite=True), asym
