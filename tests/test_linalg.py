import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from stream_oracle import Stream

from irreplab import (
    InvalidInputError,
    NumericFailureError,
    SymMatrix,
    build_group,
    draw_label_blocks,
    eigensolve,
    multiset_deviation,
    read_matrix_text,
    write_matrix_text,
)
from irreplab.cli import main
from irreplab.linalg import _Memo

def _jacobi_rotate(a, v, p, q):
    apq = a[p, q]
    gap = a[q, q] - a[p, p]
    if abs(gap) + 100.0 * abs(apq) == abs(gap):
        # pivot negligible next to the diagonal gap; the small-angle
        # limit avoids overflow in theta**2
        t = apq / gap
    else:
        theta = 0.5 * gap / apq
        t = 1.0 / (abs(theta) + math.sqrt(1.0 + theta * theta))
        if theta < 0.0:
            t = -t
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c
    col_p = a[:, p].copy()
    col_q = a[:, q].copy()
    a[:, p] = c * col_p - s * col_q
    a[:, q] = s * col_p + c * col_q
    row_p = a[p, :].copy()
    row_q = a[q, :].copy()
    a[p, :] = c * row_p - s * row_q
    a[q, :] = s * row_p + c * row_q
    a[p, q] = 0.0
    a[q, p] = 0.0
    if v is not None:
        v_p = v[:, p].copy()
        v[:, p] = c * v_p - s * v[:, q]
        v[:, q] = s * v_p + c * v[:, q]


class JacobiSweepCapError(NumericFailureError):
    """The Jacobi oracle stopped at its sweep cap after ``sweeps`` sweeps."""

    def __init__(self, message, sweeps):
        super().__init__(message)
        self.sweeps = sweeps


def jacobi_eigensolve(h, want_vectors=False, tol=1e-12, max_sweeps=100):
    """Oracle: cyclic Jacobi sweeps until the off-diagonal Frobenius norm
    drops below ``tol * ||H||_F`` (rotation invariant, so the threshold is
    fixed once per matrix).  Shares no code with LAPACK.  Returns the
    ascending eigenvalues, or (eigenvalues, eigenvectors by column)."""
    h = h if isinstance(h, SymMatrix) else SymMatrix(h)
    a = h.values.copy()
    n = a.shape[0]
    v = np.eye(n) if want_vectors else None
    fro = np.linalg.norm(a)
    threshold = tol * fro
    sweeps = 0
    while True:
        off = math.sqrt(2.0) * float(np.linalg.norm(np.triu(a, 1)))
        if off <= threshold:
            break
        if sweeps >= max_sweeps:
            raise JacobiSweepCapError(
                f"Jacobi eigensolver did not converge after {sweeps} sweeps "
                f"(off-diagonal norm {off:.3e}, threshold {threshold:.3e})",
                sweeps,
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] != 0.0:
                    _jacobi_rotate(a, v, p, q)
        sweeps += 1
    eigenvalues = np.diag(a).copy()
    order = np.argsort(eigenvalues, kind="stable")
    return (eigenvalues[order], v[:, order]) if want_vectors else eigenvalues[order]


# the library solver and the Jacobi oracle, run through the same tests
ENGINES = [{"solve": eigensolve}, {"solve": jacobi_eigensolve}]


def charpoly_bisection_eigs(mat, tol=1e-12):
    """Independent oracle: sign changes of det(H - x I) refined by bisection.

    Written against the raw determinant (LU path), so it shares no code
    with either eigensolver.  Assumes simple eigenvalues.
    """
    n = mat.shape[0]
    radius = float(np.max(np.sum(np.abs(mat), axis=1)))

    def p(x):
        return float(np.linalg.det(mat - x * np.eye(n)))

    xs = np.linspace(-radius - 1.0, radius + 1.0, 20001)
    vals = [p(x) for x in xs]
    roots = []
    for a, b, fa, fb in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0.0:
            lo, hi, flo = a, b, fa
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                fm = p(mid)
                if fm == 0.0:
                    lo = hi = mid
                elif flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi))
    return np.array(roots)


# Oracle output for the seeded 5x5 below, frozen at first build.
SEEDED_5X5_EIGS = [
    -4.63497302259037,
    -0.863284838568922,
    0.654981362938673,
    2.3062831915242,
    2.44708177160009,
]


def seeded_5x5():
    return SymMatrix(draw_label_blocks(1, 5, 314159, 0)[0])


class TestSymMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError):
            SymMatrix([[0.0, 1.0], [1.0 + 1e-15, 0.0]])

    def test_symmetrized_repairs(self):
        h = SymMatrix.symmetrized([[0.0, 1.0], [2.0, 0.0]])
        assert h[0, 1] == h[1, 0] == 1.5

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            SymMatrix(np.zeros((2, 3)))

    def test_empty_matrix_rejected(self):
        with pytest.raises(InvalidInputError, match="^matrix dimension must be >= 1$"):
            SymMatrix(np.empty((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("make", [SymMatrix, SymMatrix.symmetrized],
                             ids=["exact", "symmetrized"])
    def test_nonfinite_entry_rejected(self, make, bad):
        # checked before the symmetry test, which a NaN always fails
        with pytest.raises(InvalidInputError, match="^matrix entries must be finite$"):
            make([[bad, 0.0], [0.0, 1.0]])

    def test_scalar_becomes_1x1(self):
        assert SymMatrix(4.0).dim == 1

    def test_storage_immutable(self):
        h = seeded_5x5()
        with pytest.raises(ValueError):
            h.values[0, 0] = 7.0


class TestEigensolve:
    @pytest.mark.parametrize("options", ENGINES)
    def test_diagonal(self, options):
        spec = options["solve"](np.diag([2.0, 3.0]))
        assert np.allclose(spec, [2.0, 3.0], atol=0)

    @pytest.mark.parametrize("options", ENGINES)
    def test_exchange(self, options):
        spec = options["solve"]([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(spec, [-1.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("options", ENGINES)
    def test_already_diagonal_sorted(self, options):
        spec = options["solve"](np.diag([5.0, -1.0, 2.0]))
        assert list(spec) == [-1.0, 2.0, 5.0]

    @pytest.mark.parametrize("options", ENGINES)
    def test_seeded_5x5_vs_charpoly_oracle(self, options):
        h = seeded_5x5()
        oracle = charpoly_bisection_eigs(h.values)
        assert np.max(np.abs(oracle - SEEDED_5X5_EIGS)) < 1e-10
        spec = options["solve"](h)
        assert np.max(np.abs(spec - oracle)) < 1e-9

    @pytest.mark.parametrize("options", ENGINES)
    @pytest.mark.parametrize("seed,dim", [(100, 3), (101, 5), (102, 9), (103, 16)])
    def test_trace_and_frobenius_sums(self, options, seed, dim):
        h = SymMatrix(draw_label_blocks(1, dim, seed, 0)[0])
        spec = options["solve"](h)
        tol = 1e-8 * dim * max(1.0, h.max_abs())
        assert abs(np.sum(spec) - np.trace(h.values)) < tol
        assert abs(np.sum(spec**2) - np.linalg.norm(h.values) ** 2) < tol

    def test_vectors_orthonormal_and_reconstruct(self):
        h = seeded_5x5()
        w, v = jacobi_eigensolve(h, want_vectors=True)
        assert np.max(np.abs(v.T @ v - np.eye(5))) < 1e-10
        resid = np.max(np.abs((v * w) @ v.T - h.values))
        assert resid < 1e-8 * 5 * max(1.0, h.max_abs())
        for k in range(5):
            err = np.max(np.abs(h.values @ v[:, k] - w[k] * v[:, k]))
            assert err < 1e-8 * max(1.0, h.max_abs())

    def test_jacobi_matches_lapack(self):
        for seed, dim in [(200, 2), (201, 6), (202, 11), (203, 17)]:
            h = draw_label_blocks(1, dim, seed, 0)[0]
            lap = eigensolve(h)
            jac = jacobi_eigensolve(h)
            assert np.max(np.abs(lap - jac)) < 1e-12 * max(1.0, np.max(np.abs(h)))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError, match="^matrix entries must be finite$"):
            eigensolve([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidInputError, match="^matrix entries must be finite$"):
            eigensolve([[np.inf, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("h", [np.diag([5.0, -1.0, 2.0]), np.array([[7.0]]),
                                   seeded_5x5().values, draw_label_blocks(1, 9, 104, 0)[0]])
    def test_returns_read_only_ascending_float64(self, h):
        ev = eigensolve(h)
        assert type(ev) is np.ndarray and ev.dtype == np.float64 and ev.shape == (len(h),)
        assert np.all(ev[1:] >= ev[:-1])
        assert not ev.flags.writeable

    def test_lapack_failure_is_numeric_failure(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(NumericFailureError, match="LAPACK eigensolver failed: "
                                                      "Eigenvalues did not converge"):
            eigensolve(np.diag([1.0, 2.0]))

    def test_jacobi_sweep_cap_reports_count(self):
        h = draw_label_blocks(1, 6, 7, 0)[0]
        with pytest.raises(NumericFailureError) as err:
            jacobi_eigensolve(h, max_sweeps=0)
        assert err.value.sweeps == 0


def random_givens_orthogonal(dim, seed, rotations=None):
    """Product of Givens rotations with seeded angles."""
    stream = Stream(seed, 0, 99)
    p = np.eye(dim)
    for _ in range(rotations or 3 * dim):
        i = int(stream.uniform() * dim)
        j = int(stream.uniform() * (dim - 1))
        if j >= i:
            j += 1
        angle = 2.0 * math.pi * stream.uniform()
        g = np.eye(dim)
        g[i, i] = g[j, j] = math.cos(angle)
        g[i, j] = -math.sin(angle)
        g[j, i] = math.sin(angle)
        p = p @ g
    return p


def similarity(h, p, ortho_tol=1e-10):
    """Orthogonal similarity transform ``P^T H P``; ``p`` must satisfy
    ``||P^T P - I||_max <= ortho_tol``."""
    h = h if isinstance(h, SymMatrix) else SymMatrix(h)
    p = np.asarray(p, dtype=np.float64)
    if p.shape != (h.dim, h.dim):
        raise InvalidInputError("transform shape does not match matrix")
    defect = np.max(np.abs(p.T @ p - np.eye(h.dim)))
    if defect > ortho_tol:
        raise InvalidInputError(
            f"matrix is not orthogonal (||P^T P - I||_max = {defect:.3e})"
        )
    return SymMatrix.symmetrized(p.T @ h.values @ p)


def spectrum_multiset_equal(a, b, tol):
    """True iff the two ascending lists agree elementwise within ``tol``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size != b.size:
        return False
    return bool(a.size == 0 or np.max(np.abs(a - b)) <= tol)


class TestSimilarity:
    def test_identity(self):
        h = seeded_5x5()
        assert np.array_equal(similarity(h, np.eye(5)).values, h.values)

    def test_permutation_swap(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = similarity(np.diag([1.0, 2.0]), swap)
        assert np.array_equal(out.values, np.diag([2.0, 1.0]))

    @pytest.mark.parametrize("dim", [4, 8, 64])
    def test_spectrum_preserved_under_givens_rotation(self, dim):
        h = draw_label_blocks(1, dim, 42 + dim, 0)[0]
        p = random_givens_orthogonal(dim, seed=dim)
        before = eigensolve(h)
        after = eigensolve(similarity(h, p))
        tol = 1e-9 if dim == 64 else 1e-10
        assert np.max(np.abs(before - after)) < tol

    def test_non_orthogonal_rejected(self):
        with pytest.raises(InvalidInputError):
            similarity(np.diag([1.0, 2.0]), np.array([[1.0, 0.1], [0.0, 1.0]]))


class TestMultisetComparison:
    def test_equal_within_tol(self):
        assert spectrum_multiset_equal([1.0, 2.0], [1.0, 2.0], 1e-9)

    def test_detects_mismatch(self):
        assert not spectrum_multiset_equal([1.0, 2.0], [1.0, 2.0 + 1e-3], 1e-9)

    def test_length_mismatch_is_false(self):
        assert not spectrum_multiset_equal([1.0], [1.0, 2.0], 1.0)

    def test_deviation_value(self):
        assert multiset_deviation([0.0, 1.0], [0.0, 1.5]) == 0.5
        with pytest.raises(InvalidInputError):
            multiset_deviation([0.0], [0.0, 1.0])


class TestMatrixTextFormat:
    def test_roundtrip_exact(self, tmp_path):
        h = seeded_5x5()
        path = tmp_path / "h.txt"
        write_matrix_text(h, path)
        back, asym = read_matrix_text(path)
        assert asym == 0.0
        assert np.array_equal(back.values, h.values)

    def test_records_asymmetry(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2\n0 1.0\n1.5 0\n")
        back, asym = read_matrix_text(path)
        assert asym == 0.5
        assert back[0, 1] == back[1, 0] == 1.25

    @pytest.mark.parametrize(
        "text", ["", "x\n", "2\n1 2\n", "2\n1 2 3\n2 1 0\n", "2\n1 zz\n2 1\n"]
    )
    def test_malformed_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(InvalidInputError):
            read_matrix_text(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_nonfinite_entry_rejected(self, tmp_path, token):
        path = tmp_path / "nf.txt"
        path.write_text(f"2\n1 {token}\n{token} 1\n")
        with pytest.raises(InvalidInputError, match="nf.txt: matrix entries must be finite"):
            read_matrix_text(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_nonfinite_matrix_not_written(self, tmp_path, bad):
        # the reader refuses such a file, so the writer never makes one
        path = tmp_path / "nf.txt"
        with pytest.raises(InvalidInputError, match="^matrix entries must be finite$"):
            write_matrix_text(np.array([[bad, 0.0], [0.0, 1.0]]), path)
        assert not path.exists()

    def test_bit_symmetric_data_kept_exactly(self, tmp_path):
        # (x + x) / 2 would overflow for |x| >= 2**1023
        big = np.finfo(np.float64).max
        path = tmp_path / "big.txt"
        write_matrix_text(np.array([[big, -big], [-big, 5e-324]]), path)
        back, asym = read_matrix_text(path)
        assert asym == 0.0
        assert back[0, 0] == big and back[0, 1] == -big and back[1, 1] == 5e-324

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.txt"
        path.write_text("\n2\n\n1 2\n  \n2 3\n\n")
        back, _ = read_matrix_text(path)
        assert back.values.tolist() == [[1.0, 2.0], [2.0, 3.0]]

    @pytest.mark.parametrize(
        "text,found",
        [("2\n1 2\n", 1), ("2\n1 2\n2 1\n3 3\n", 3), ("2\n1 2 3\n2 1 0\n3 3 3\n", 3),
         ("2\n1 zz\n", 1), ("1000000000\n1 2\n2 1\n", 2)],
    )
    def test_row_count_checked_first(self, tmp_path, text, found):
        # the count is reported before any row's contents, and the
        # declared dimension alone allocates nothing
        path = tmp_path / "rows.txt"
        path.write_text(text)
        dim = text.split("\n", 1)[0]
        with pytest.raises(InvalidInputError, match=f"expected {dim} rows, found {found}$"):
            read_matrix_text(path)

    @pytest.mark.parametrize(
        "text,message",
        [("2\n1 2\n2 1 0\n", "row of length 3, expected 2"),
         ("2\n1 zz\n1 2 3\n", "malformed number in row")],
    )
    def test_first_bad_row_reported(self, tmp_path, text, message):
        path = tmp_path / "row.txt"
        path.write_text(text)
        with pytest.raises(InvalidInputError, match=message):
            read_matrix_text(path)

    def test_python_float_syntax(self, tmp_path):
        path = tmp_path / "syntax.txt"
        path.write_text("2\n1_0 +.5\n0.5e0 -0\n")
        back, asym = read_matrix_text(path)
        assert back.values.tolist() == [[10.0, 0.5], [0.5, -0.0]]
        assert math.copysign(1.0, back[1, 1]) == -1.0
        assert asym == 0.0


def _reference_text(values):
    """The format written one element at a time, as the first writer did."""
    rows = (" ".join(format(float(x), ".17g") for x in row) for row in values)
    return f"{values.shape[0]}\n" + "".join(row + "\n" for row in rows)


SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                  1.7976931348623157e308, -1.7976931348623157e308, 0.1, -1.0 / 3.0]


class TestMatrixTextBytes:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        data=st.data(),
        dim=st.integers(1, 6),
        pool=st.lists(
            st.one_of(st.sampled_from(SPECIAL_VALUES),
                      st.floats(allow_nan=False, allow_infinity=False)),
            min_size=1, max_size=5,
        ),
    )
    def test_bytes_match_per_element_format_and_read_back(self, tmp_path, data, dim, pool):
        # few distinct values, as in an invariant matrix
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1),
                                   min_size=dim * dim, max_size=dim * dim))
        values = np.array([pool[i] for i in picks]).reshape(dim, dim)
        values = np.where(np.tri(dim, dtype=bool), values, values.T)
        path = tmp_path / "h.txt"
        write_matrix_text(values, path)
        assert path.read_bytes() == _reference_text(values).encode("ascii")
        back, asym = read_matrix_text(path)
        assert asym == 0.0
        assert np.array_equal(back.values.view(np.uint64), values.view(np.uint64))

    @pytest.mark.parametrize("dim", [1, 2, 20])
    def test_bytes_past_the_memo_limit(self, tmp_path, dim):
        # all dim(dim+1)/2 values distinct: past dim + dim^2/16 of them the
        # writer formats and the reader parses each occurrence again
        values = draw_label_blocks(1, dim, 8, 0)[0]
        path = tmp_path / "h.txt"
        write_matrix_text(values, path)
        assert path.read_bytes() == _reference_text(values).encode("ascii")
        back, asym = read_matrix_text(path)
        assert asym == 0.0
        assert np.array_equal(back.values.view(np.uint64), values.view(np.uint64))

    @pytest.mark.parametrize("kind, n", [("tetra", None), ("octa", None), ("cube", None),
                                         ("cyclic", 5), ("cyclic", 6), ("cyclic", 50)])
    def test_invariant_matrices_stay_under_the_memo_limit(self, kind, n):
        # L orbits give at most L m(m+1)/2 distinct values, each formatted once
        group = build_group(kind, n)
        for m in (1, 2, 3, 8, 60, 250, 1000):
            limit = _Memo(float, group.sites * m).limit
            assert group.orbit_count * m * (m + 1) // 2 <= limit

    @pytest.mark.parametrize(
        "args,digest",
        [(["--group", "cube", "--m", "60"],
          "034070abd4b6d7af99903259c364cec853a0d292d2174d2af4c53e6f5ccc4312"),
         (["--group", "cyclic", "--n", "50", "--m", "8"],
          "990e9b0bfe4893da810910b25e512bac5986734c526ab5ddcee941b0b0b85a94")],
    )
    def test_build_bytes_pinned(self, tmp_path, capsys, args, digest):
        # digests of the matrices built before the writer cached its words
        out = tmp_path / "h.txt"
        assert main(["build", *args, "--seed", "11", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
