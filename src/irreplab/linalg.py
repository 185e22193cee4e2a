"""Dense real symmetric matrices and their eigendecomposition.

`SymMatrix` is the numeric carrier used everywhere else in the package;
it enforces exact (bitwise) symmetry at construction.  `eigensolve`
runs LAPACK (`numpy.linalg.eigh` / `eigvalsh`) and checks every
eigenvector decomposition it returns against the matrix.

A plain text matrix format is defined for interchange: first line the
dimension, then one row of space-separated decimals per line.  Up to
dim + dim^2 / 16 distinct values are converted once in either direction.
The parser fills one array, symmetrizes it in place and reports the
largest asymmetry it had to repair.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericFailureError

__all__ = [
    "SymMatrix",
    "Spectrum",
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
        Square matrix, symmetric to the bit.  Use :meth:`symmetrized`
        when the data carries floating-point asymmetry.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        self._adopt(np.array(values, dtype=np.float64, copy=True))

    @classmethod
    def _adopting(cls, arr: np.ndarray, symmetrize: bool = False) -> "SymMatrix":
        """A matrix keeping the float64 ``arr``, which nothing else holds,
        uncopied; ``symmetrize`` first makes it M/2 + M^T/2 in place unless
        it is symmetric to the bit."""
        return cls.__new__(cls)._adopt(arr, symmetrize)

    def _adopt(self, arr: np.ndarray, symmetrize: bool = False) -> "SymMatrix":
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise InvalidInputError(f"expected a square matrix, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise InvalidInputError("matrix dimension must be >= 1")
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


# eigenvector residual bound, per unit of dim * max(1, ||H||_max)
_RESIDUAL_SCALE = 1e-8


def _as_sym(h) -> SymMatrix:
    return h if isinstance(h, SymMatrix) else SymMatrix(h)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in ascending order, optionally with eigenvectors.

    When present, ``eigenvectors`` holds one orthonormal eigenvector per
    column, aligned with ``eigenvalues``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None = None

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=np.float64)
        if ev.ndim != 1:
            raise InvalidInputError("eigenvalues must be a 1-d sequence")
        if np.any(ev[1:] < ev[:-1]):
            raise InvalidInputError("eigenvalues must be sorted ascending")
        ev = ev.copy()
        ev.flags.writeable = False
        object.__setattr__(self, "eigenvalues", ev)
        if self.eigenvectors is not None:
            vec = np.array(self.eigenvectors, dtype=np.float64)
            if vec.shape != (ev.size, ev.size):
                raise InvalidInputError("eigenvector matrix has wrong shape")
            vec.flags.writeable = False
            object.__setattr__(self, "eigenvectors", vec)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def eigensolve(h, want_vectors: bool = False) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix.

    Parameters
    ----------
    h : SymMatrix or array_like
        Matrix to decompose; arrays must be exactly symmetric.
    want_vectors : bool
        Also return the orthogonal eigenvector matrix (one per column).

    Raises
    ------
    InvalidInputError
        Non-finite entries.
    NumericFailureError
        LAPACK failed, or the reconstruction ``V diag(w) V^T`` misses
        ``h`` by more than ``1e-8 * dim * max(1, ||h||_max)``.
    """
    h = _as_sym(h)
    if not np.all(np.isfinite(h.values)):
        raise InvalidInputError("matrix entries must be finite")
    try:
        if want_vectors:
            eigenvalues, vectors = np.linalg.eigh(h.values)
        else:
            eigenvalues, vectors = np.linalg.eigvalsh(h.values), None
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"LAPACK eigensolver failed: {exc}") from exc
    if want_vectors:
        resid = np.max(np.abs((vectors * eigenvalues) @ vectors.T - h.values))
        bound = _RESIDUAL_SCALE * h.dim * max(1.0, h.max_abs())
        if resid > bound:
            raise NumericFailureError(
                f"eigendecomposition residual {resid:.3e} exceeds bound {bound:.3e}"
            )
    return Spectrum(eigenvalues, vectors)


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
    if not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{path}: matrix entries must be finite")
    # |M - M^T| is symmetric: 64-row blocks right of the diagonal (narrower read slowly)
    with np.errstate(over="ignore"):
        asym = max(float(np.max(np.abs(m[r:r + 64, r:] - m[r:, r:r + 64].T)))
                   for r in range(0, dim, 64))
    if not np.isfinite(asym):
        raise InvalidInputError(f"{path}: asymmetry beyond the float range")
    return SymMatrix._adopting(m, symmetrize=True), asym
