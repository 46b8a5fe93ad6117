"""Tubal algebra against the dense block-circulant oracle and exact identities."""

import os
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tlsq
from tlsq import tensor
from tlsq.cli import main
from tlsq.errors import DimensionMismatch, FileFormatError, ImaginaryResidue
from tlsq.tensor import _to_half


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


class TestFourier:
    def test_length_one_dft_is_identity(self):
        x = rand((3, 2, 1), 0)
        blocks = np.fft.fft(x, axis=2)
        assert np.abs(blocks[:, :, 0] - x[:, :, 0]).max() == 0.0
        assert np.abs(blocks.imag).max() == 0.0

    def test_round_trip(self):
        x = rand((3, 2, 4), 1)
        back = tlsq.from_fourier(np.fft.fft(x, axis=2))
        assert np.abs(back - x).max() <= 1e-12

    def test_parseval(self):
        x = rand((5, 3, 6), 2)
        blocks = np.fft.fft(x, axis=2)
        lhs = (np.abs(blocks) ** 2).sum() / x.shape[2]
        rhs = tlsq.fro_norm(x) ** 2
        assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_asymmetric_blocks_rejected(self):
        blocks = np.fft.fft(rand((3, 2, 5), 3), axis=2)
        blocks[:, :, 1] += 0.5j  # break conjugate symmetry
        with pytest.raises(ImaginaryResidue):
            tlsq.from_fourier(blocks)

    def test_conjugate_symmetry_of_blocks(self):
        x = rand((4, 3, 6), 4)
        blocks = np.fft.fft(x, axis=2)
        l = x.shape[2]
        for k in range(l // 2 + 1, l):
            assert np.abs(blocks[:, :, k] - np.conj(blocks[:, :, l - k])).max() <= 1e-12


class TestHalfStackInverse:
    def test_self_conjugate_residue_is_checked_per_tensor(self):
        """_from_half holds each tensor of a batch to IMAG_RESIDUE_TOL of its own magnitude.

        A residue on the unit-scale tensor's slice l/2 raises even next to a
        larger one that the 1e6-scale tensor tolerates, and a residue at
        rounding level passes. The inverse drops what it checks, so a batch
        that passes gives the clean batch's bits.
        """
        l = 6
        x = np.stack([1e6 * rand((5, 3, l), 5), rand((5, 3, l), 6)])
        half = np.stack([_to_half(t) for t in x])
        clean = tensor._from_half(half, l)
        assert np.abs(clean - x).max() <= 1e-9

        def with_residue(large, small, k=l // 2):
            blocks = half.copy()
            blocks[0, k, 0, 0] += large * 1j
            blocks[1, k, 2, 1] += small * 1j
            return blocks

        for large, small in ((1e-4, 0.0), (1e-4, 1e-12), (0.0, 1e-12)):
            assert np.array_equal(tensor._from_half(with_residue(large, small), l), clean)
        for k in (0, l // 2):
            with pytest.raises(ImaginaryResidue, match="imaginary residue"):
                tensor._from_half(with_residue(1e-4, 1e-5, k), l)
        with pytest.raises(ImaginaryResidue):
            tensor._from_half(with_residue(1.0, 0.0), l)


class TestHalfStackLayout:
    """_to_half writes each tensor's rfft into a (l//2 + 1, n, p) stack, column-major per slice.

    Every input layout gives the same bits as the rfft of a C-order array,
    and a joint [X | y] stack holds each tensor's own half stack in one
    buffer.
    """

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 23),
        p=st.integers(1, 7),
        l=st.integers(1, 9),
        square=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(n=1, p=1, l=1, square=False, seed=0)
    @example(n=23, p=3, l=2, square=False, seed=1)
    @example(n=4, p=4, l=6, square=True, seed=2)
    @example(n=17, p=2, l=7, square=False, seed=3)
    def test_bit_identical_to_moved_rfft(self, n, p, l, square, seed):
        if square:
            p = n
        x, y = rand((n, p, l), seed), rand((n, 1, l), seed + 1)
        payload = np.ascontiguousarray(x.T).T  # the F-order view read_tensor returns
        padded = np.zeros((2 * n, p + 1, 2 * l))
        padded[::2, 1:, ::2] = x
        expected = np.ascontiguousarray(np.moveaxis(np.fft.rfft(x, axis=2), 2, 0))
        for layout in (x, payload, padded[::2, 1:, ::2]):
            half = _to_half(layout)
            assert half.shape == (l // 2 + 1, n, p)
            assert half.mT.flags.c_contiguous  # the sketch gathers read its columns
            assert half.tobytes() == expected.tobytes()
        joint = _to_half(payload, y)
        assert joint.shape == (l // 2 + 1, n, p + 1) and joint.mT.flags.c_contiguous
        assert joint[..., :p].base is joint[..., p:].base is not None
        assert joint[..., :p].tobytes() == expected.tobytes()
        assert joint[..., p:].tobytes() == _to_half(y).tobytes()


class TestTProduct:
    def test_identity_neutral(self, identity):
        y = rand((3, 2, 4), 5)
        out = tlsq.t_product(identity(3, 4), y)
        assert np.abs(out - y).max() <= 1e-12

    def test_single_tube_collapses_to_matrix_product(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
        y = np.array([[1.0], [1.0]]).reshape(2, 1, 1)
        out = tlsq.t_product(x, y)
        assert np.abs(out[:, :, 0] - [[3.0], [7.0]]).max() <= 1e-12

    def test_matches_block_circulant_oracle(self):
        x = rand((3, 2, 4), 6)
        y = rand((2, 2, 4), 7)
        assert np.abs(tlsq.t_product(x, y) - tlsq.bcirc_product(x, y)).max() <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_oracle_sweep(self, seed):
        rng = np.random.default_rng(100 + seed)
        n, p, r = rng.integers(1, 7, size=3)
        l = rng.integers(1, 9)
        x = rng.standard_normal((n, p, l))
        y = rng.standard_normal((p, r, l))
        assert np.abs(tlsq.t_product(x, y) - tlsq.bcirc_product(x, y)).max() <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            tlsq.t_product(rand((3, 2, 4), 8), rand((3, 2, 4), 9))
        with pytest.raises(DimensionMismatch):
            tlsq.t_product(rand((3, 2, 4), 8), rand((2, 2, 5), 9))

    def test_shortcut_matches_full_slice_loop(self):
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            l = int(rng.integers(1, 9))
            x = rng.standard_normal((4, 3, l))
            y = rng.standard_normal((3, 2, l))
            zh = np.einsum("ipk,prk->irk", np.fft.fft(x, axis=2), np.fft.fft(y, axis=2))
            full = tlsq.from_fourier(zh)
            fast = tlsq.t_product(x, y)
            assert np.abs(full - fast).max() <= 1e-12 * max(1.0, np.abs(full).max())

    def test_transpose_of_product(self):
        x = rand((3, 2, 4), 10)
        y = rand((2, 3, 4), 11)
        lhs = tlsq.t_transpose(tlsq.t_product(x, y))
        rhs = tlsq.t_product(tlsq.t_transpose(y), tlsq.t_transpose(x))
        assert np.abs(lhs - rhs).max() <= 1e-10


class TestTranspose:
    def test_single_tube_is_matrix_transpose(self):
        x = rand((3, 2, 1), 12)
        assert np.array_equal(tlsq.t_transpose(x)[:, :, 0], x[:, :, 0].T)

    def test_involution_bit_exact(self):
        x = rand((4, 3, 5), 13)
        assert np.array_equal(tlsq.t_transpose(tlsq.t_transpose(x)), x)

    def test_matches_block_circulant_transpose(self):
        x = rand((3, 2, 4), 14)
        assert np.array_equal(tlsq.bcirc(tlsq.t_transpose(x)), tlsq.bcirc(x).T)


class TestBcirc:
    def test_single_tube(self):
        x = rand((3, 2, 1), 15)
        assert np.array_equal(tlsq.bcirc(x), x[:, :, 0])

    def test_scalar_tube_circulant(self):
        x = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3)
        expected = np.array([[1.0, 3.0, 2.0], [2.0, 1.0, 3.0], [3.0, 2.0, 1.0]])
        assert np.array_equal(tlsq.bcirc(x), expected)

    def test_singular_values_union_of_slices(self):
        x = rand((3, 3, 4), 16)
        dense = np.sort(np.linalg.svd(tlsq.bcirc(x), compute_uv=False))
        slices = np.sort(tlsq.thin_t_svd(x).slice_singular_values.ravel())
        assert np.abs(dense - slices).max() <= 1e-10 * max(1.0, dense.max())

    def test_size_guard(self):
        with pytest.raises(ValueError, match="entries"):
            tlsq.bcirc(np.zeros((700, 700, 3)))

    def test_unfold_fold_round_trip(self):
        x = rand((3, 2, 4), 17)
        assert np.array_equal(tlsq.fold(tlsq.unfold(x), 3, 4), x)


class TestConstructors:
    def test_identity_idempotent_under_product(self, identity):
        i3 = identity(3, 4)
        assert np.abs(tlsq.t_product(i3, i3) - i3).max() <= 1e-12

    def test_f_diag_of_unit_tubes_is_identity(self, identity):
        ones = np.zeros((3, 1, 4))
        ones[:, 0, 0] = 1.0
        assert np.array_equal(tlsq.f_diag(ones), identity(3, 4))

    def test_f_diag_product_matches_oracle(self):
        v = rand((4, 1, 3), 18)
        w = rand((4, 1, 3), 19)
        d = tlsq.f_diag(v)
        assert np.abs(tlsq.t_product(d, w) - tlsq.bcirc_product(d, w)).max() <= 1e-10

    def test_f_diag_requires_vector(self):
        with pytest.raises(DimensionMismatch):
            tlsq.f_diag(rand((4, 2, 3), 20))


class TestNorm:
    def test_zero(self):
        assert tlsq.fro_norm(np.zeros((2, 3, 4))) == 0.0

    def test_identity(self, identity):
        assert abs(tlsq.fro_norm(identity(5, 3)) - np.sqrt(5)) <= 1e-12

    def test_fourier_sum(self):
        x = rand((4, 3, 5), 21)
        blocks = np.fft.fft(x, axis=2)
        assert abs(np.sqrt((np.abs(blocks) ** 2).sum() / 5) - tlsq.fro_norm(x)) <= 1e-12


class TestThinTSVD:
    def test_identity_factors(self, identity):
        svd = tlsq.thin_t_svd(identity(4, 3))
        assert svd.rank == 4
        assert np.abs(svd.s - identity(4, 3)).max() <= 1e-12
        recon = tlsq.t_product(tlsq.t_product(svd.u, svd.s), tlsq.t_transpose(svd.v))
        assert np.abs(recon - identity(4, 3)).max() <= 1e-12

    def test_single_tube_is_matrix_svd(self):
        x = rand((5, 3, 1), 22)
        svd = tlsq.thin_t_svd(x)
        sv = np.linalg.svd(x[:, :, 0], compute_uv=False)
        assert np.abs(svd.slice_singular_values[:, 0] - sv).max() <= 1e-12

    def test_reconstruction_and_multiset(self):
        x = rand((6, 3, 4), 23)
        svd = tlsq.thin_t_svd(x)
        recon = tlsq.t_product(tlsq.t_product(svd.u, svd.s), tlsq.t_transpose(svd.v))
        assert tlsq.fro_norm(recon - x) <= 1e-10 * tlsq.fro_norm(x)
        dense = np.sort(np.linalg.svd(tlsq.bcirc(x), compute_uv=False))
        mine = np.sort(svd.slice_singular_values.ravel())
        assert np.abs(dense - mine).max() <= 1e-10 * max(1.0, dense.max())

    def test_partial_orthogonality(self, identity):
        x = rand((6, 3, 4), 24)
        svd = tlsq.thin_t_svd(x)
        i_r = identity(svd.rank, 4)
        utu = tlsq.t_product(tlsq.t_transpose(svd.u), svd.u)
        vtv = tlsq.t_product(tlsq.t_transpose(svd.v), svd.v)
        assert np.abs(utu - i_r).max() <= 1e-8
        assert np.abs(vtv - i_r).max() <= 1e-8

    def test_singular_slices_diagonal_nonneg_sorted(self):
        x = rand((5, 4, 3), 25)
        svd = tlsq.thin_t_svd(x)
        shat = np.fft.fft(svd.s, axis=2)
        for k in range(3):
            slice_k = shat[:, :, k]
            off = slice_k - np.diag(np.diag(slice_k))
            assert np.abs(off).max() <= 1e-10
            diag = np.diag(slice_k).real
            assert (diag >= -1e-12).all()
            assert (np.diff(diag) <= 1e-12).all()

    def test_low_tubal_rank_truncation(self):
        a = rand((6, 1, 4), 26)
        b = rand((1, 4, 4), 27)
        x = tlsq.t_product(a, b)
        svd = tlsq.thin_t_svd(x)
        assert svd.rank == 1
        assert svd.u.shape == (6, 1, 4)
        recon = tlsq.t_product(tlsq.t_product(svd.u, svd.s), tlsq.t_transpose(svd.v))
        assert tlsq.fro_norm(recon - x) <= 1e-8 * tlsq.fro_norm(x)


class TestTubalRank:
    def test_identity(self, identity):
        assert tlsq.thin_t_svd(identity(4, 5)).rank == 4

    def test_zero(self):
        assert tlsq.thin_t_svd(np.zeros((3, 2, 4))).rank == 0

    def test_outer_product_rank_one(self):
        a = rand((5, 1, 3), 28)
        b = rand((1, 4, 3), 29)
        x = tlsq.t_product(a, b)
        assert tlsq.thin_t_svd(x).rank == 1
        # dense cross-check: every slice has rank one, so the embedding has rank l
        assert np.linalg.matrix_rank(tlsq.bcirc(x)) == 3

    def test_negative_tolerance_rejected(self, identity):
        with pytest.raises(ValueError, match="nonnegative"):
            tlsq.thin_t_svd(identity(2, 2), tol=-1.0)


class TestPinv:
    def test_identity(self, identity):
        i4 = identity(4, 3)
        assert np.abs(tlsq.t_pinv(i4) - i4).max() <= 1e-12

    def test_square_invertible(self, identity):
        x = rand((4, 4, 3), 30) + 2.0 * identity(4, 3)
        prod = tlsq.t_product(x, tlsq.t_pinv(x))
        assert np.abs(prod - identity(4, 3)).max() <= 1e-8

    def test_four_penrose_identities(self):
        x = rand((6, 3, 4), 31)
        y = tlsq.t_pinv(x)
        xy = tlsq.t_product(x, y)
        yx = tlsq.t_product(y, x)
        assert np.abs(tlsq.t_product(xy, x) - x).max() <= 1e-10
        assert np.abs(tlsq.t_product(yx, y) - y).max() <= 1e-10
        assert np.abs(tlsq.t_transpose(xy) - xy).max() <= 1e-10
        assert np.abs(tlsq.t_transpose(yx) - yx).max() <= 1e-10

    def test_double_pinv_returns_input(self):
        x = rand((5, 3, 4), 32)
        assert np.abs(tlsq.t_pinv(tlsq.t_pinv(x)) - x).max() <= 1e-8


def extremal_singular_values(x):
    """(smallest, largest, condition number) of a full-rank tensor's DFT-slice singular values."""
    sv = tlsq.thin_t_svd(x).slice_singular_values
    assert sv.shape == (x.shape[1], x.shape[2])
    return sv.min(), sv.max(), sv.max() / sv.min()


class TestExtremalSingularValues:
    """The extremes of thin_t_svd's slice singular values are those of the embedding bcirc(x)."""

    def test_identity(self, identity):
        assert extremal_singular_values(identity(3, 4)) == (1.0, 1.0, 1.0)

    def test_single_tube(self):
        x = rand((4, 2, 1), 33)
        sv = np.linalg.svd(x[:, :, 0], compute_uv=False)
        smin, smax, kappa = extremal_singular_values(x)
        assert abs(smin - sv.min()) <= 1e-12
        assert abs(smax - sv.max()) <= 1e-12
        assert abs(kappa - sv.max() / sv.min()) <= 1e-9

    def test_matches_dense_oracle(self):
        x = rand((4, 2, 3), 34)
        dense = np.linalg.svd(tlsq.bcirc(x), compute_uv=False)
        smin, smax, _ = extremal_singular_values(x)
        assert abs(smin - dense.min()) <= 1e-10
        assert abs(smax - dense.max()) <= 1e-10


class TestComplexInput:
    """A complex array is refused by name, not cast to its real part."""

    def test_t_product_rejects_complex_operand(self):
        x, y = rand((5, 2, 3), 36), rand((2, 1, 3), 37)
        with pytest.raises(ValueError, match="left operand is complex"):
            tlsq.t_product(x + 1j * x, y)
        with pytest.raises(ValueError, match="right operand is complex"):
            tlsq.t_product(x, y.astype(complex))

    def test_problem_rejects_complex_design_and_response(self):
        x, y = rand((5, 2, 3), 38), rand((5, 1, 3), 39)
        with pytest.raises(ValueError, match="design is complex"):
            tlsq.TlsProblem(x + 1j * x, y)
        with pytest.raises(ValueError, match="response is complex"):
            tlsq.TlsProblem(x, y + 1j * y)


class TestTensorFile:
    def test_round_trip_bit_exact(self, tmp_path):
        x = rand((4, 3, 5), 35)
        path = tmp_path / "x.tt"
        tlsq.write_tensor(x, path)
        assert np.array_equal(tlsq.read_tensor(path), x)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tt"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(FileFormatError, match="magic"):
            tlsq.read_tensor(path)

    def test_rejects_bad_version(self, tmp_path):
        x = rand((2, 2, 2), 36)
        path = tmp_path / "v.tt"
        tlsq.write_tensor(x, path)
        payload = bytearray(path.read_bytes())
        payload[4] = 9
        path.write_bytes(bytes(payload))
        with pytest.raises(FileFormatError, match="version"):
            tlsq.read_tensor(path)

    def test_rejects_truncated_payload(self, tmp_path):
        x = rand((2, 2, 2), 37)
        path = tmp_path / "t.tt"
        tlsq.write_tensor(x, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FileFormatError, match="expected"):
            tlsq.read_tensor(path)

    def test_reads_float64_view_of_payload(self, tmp_path):
        x = np.asfortranarray(rand((5, 3, 4), 39))
        path = tmp_path / "c.tt"
        tlsq.write_tensor(x, path)
        got = tlsq.read_tensor(path)
        assert got.shape == (5, 3, 4) and got.dtype == np.float64
        # the (n, p, l) view of the one (l, p, n) array the payload was read into
        assert got.base is not None and got.base.flags.owndata
        assert got.base.shape == (4, 3, 5) and got.flags.f_contiguous
        assert _to_half(got).tobytes() == _to_half(np.ascontiguousarray(x)).tobytes()

    @staticmethod
    def malformed_file(tmp_path, kind):
        path = tmp_path / f"{kind}.tt"
        tlsq.write_tensor(rand((4, 3, 2), 40), path)
        raw = bytearray(path.read_bytes())
        if kind == "trailing-value":
            raw += struct.pack("<d", 1.0)
        elif kind == "trailing-bytes":
            raw += b"\x00\x01\x02"
        elif kind == "truncated-header":
            raw = raw[:20]
        else:
            value = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
            raw[32 + 8 * 13 : 32 + 8 * 14] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        return path

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("trailing-value", "expected 24 values"),
            ("trailing-bytes", "expected 24 values"),
            ("truncated-header", "truncated header"),
            ("nan", "non-finite"),
            ("inf", "non-finite"),
            ("-inf", "non-finite"),
        ],
    )
    def test_rejects_malformed_file_in_library_and_cli(self, tmp_path, capsys, kind, message):
        path = self.malformed_file(tmp_path, kind)
        with pytest.raises(FileFormatError, match=message) as info:
            tlsq.read_tensor(path)
        response = tmp_path / "y.tt"
        tlsq.write_tensor(rand((4, 1, 2), 41), response)
        code = main(["solve", "--design", str(path), "--response", str(response),
                     "--method", "ols", "--out", str(tmp_path / "b.tt")])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(info.value) in captured.err

    def test_layout_is_slice_major_column_major(self, tmp_path):
        x = np.arange(2 * 3 * 2, dtype=float).reshape(2, 3, 2)
        path = tmp_path / "layout.tt"
        tlsq.write_tensor(x, path)
        raw = np.frombuffer(path.read_bytes()[32:], dtype="<f8")
        expected = [x[i, j, k] for k in range(2) for j in range(3) for i in range(2)]
        assert np.array_equal(raw, expected)


class TestValidation:
    def test_non_finite_rejected(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            tlsq.as_tensor(bad)

    def test_wrong_ndim_rejected(self):
        with pytest.raises(DimensionMismatch):
            tlsq.as_tensor(np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "call, error, match",
        [
            (lambda _: tlsq.from_fourier(np.zeros((3, 2), complex)), DimensionMismatch, "3-way"),
            (lambda identity: identity(0, 3), ValueError, "n >= 1"),
            (lambda _: tlsq.fold(np.zeros((5, 2)), 2, 3), DimensionMismatch, "cannot fold"),
        ],
        ids=["from_fourier-2d", "identity-n0", "fold-wrong-height"],
    )
    def test_bad_argument_rejected(self, identity, call, error, match):
        with pytest.raises(error, match=match):
            call(identity)

    def test_payload_short_of_its_checked_size(self, tmp_path, monkeypatch):
        """A payload that comes up short after the size check (a file cut while read) is rejected."""
        path = tmp_path / "cut.tt"
        tlsq.write_tensor(rand((4, 2, 3), 42), path)
        os.truncate(path, path.stat().st_size - 8)
        real = os.fstat
        monkeypatch.setattr(tensor.os, "fstat", lambda fd: SimpleNamespace(st_size=real(fd).st_size + 8))
        with pytest.raises(FileFormatError, match="payload shorter than its 192 bytes"):
            tlsq.read_tensor(path)
