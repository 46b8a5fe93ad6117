"""Dense tubal-matrix algebra.

A tubal matrix is a real order-3 array of shape (n, p, l): an n-by-p matrix
whose entries are length-l tubes. Multiplication is defined through the
block-circulant embedding of the tubes and is computed slice-wise in the DFT
domain along the third axis. All operations here are pure functions on
float64 arrays. The tubal rank is thin_t_svd(x, tol).rank. The dense
block-circulant routines are brute-force testing oracles only: no run path
forms the embedding, and the replicate driver reads the matrix baseline's
rows of bcirc(X) straight from X.
"""

from __future__ import annotations

import os
import struct
import weakref
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, FileFormatError, ImaginaryResidue

_TT_MAGIC = b"TTEN"
_TT_VERSION = 1
_TT_HEADER = "<4sIQQQ"  # magic, u32 version, n, p, l as u64, little-endian

# The dense block-circulant embedding is quadratic in l and only meant for
# cross-checking small instances.
BCIRC_MAX_ENTRIES = 4_000_000

# Relative ceiling on the imaginary part an inverse tube DFT may discard.
IMAG_RESIDUE_TOL = 1e-8

# Tall half stacks are factored, and their row energies taken, this many rows
# at a time, so no reordered copy of a whole stack is made: the fits and the
# tensor sketches factor through a TSQR buffer of this height (solver._tall_r),
# so a stack of up to 2048 rows, every desk-size one, is factored in one step.
_QR_BLOCK_ROWS = 2048

# The read-only arrays read_tensor returned after its finiteness scan, by id.
# An entry dies with its array, so any other array is scanned by as_tensor.
_SCANNED = weakref.WeakValueDictionary()


def as_tensor(x, name: str = "tensor") -> np.ndarray:
    """Validate and return a tubal matrix as a float64 array of shape (n, p, l).

    A complex input raises ValueError rather than being cast, which would
    keep only its real part. An array read_tensor returned was scanned for
    non-finite values when it was read and cannot be written since, so it
    is not scanned again.
    """
    if np.iscomplexobj(x):
        raise ValueError(f"{name} is complex; a tubal matrix is real")
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 3:
        raise DimensionMismatch(f"{name} must be a 3-way array, got shape {arr.shape}")
    if min(arr.shape) < 1:
        raise DimensionMismatch(f"{name} has an empty axis: shape {arr.shape}")
    if _SCANNED.get(id(arr)) is not arr and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


# The DFT slices of a real tensor beyond index l//2 are conjugate mirrors of
# earlier ones, so only the l//2 + 1 independent slices are ever formed: as a
# slice-major "half stack" (l//2 + 1, n, p), which numpy's stacked linalg and
# matmul treat as a batch of matrices. Each slice is held column-major, the
# order of a .tt payload, of LAPACK and of the sketch stacks, so the tube DFT
# writes a tensor's spectrum in one strided rfft and the QR copies whole
# columns. Slice 0, and slice l/2 for even l, are self-conjugate (real).


def _parseval_weights(l: int) -> np.ndarray:
    """Multiplicity of each half-spectrum slice in the full DFT: 1 if self-conjugate, else 2."""
    w = np.full(l // 2 + 1, 2.0)
    w[[0, -1] if l % 2 == 0 else [0]] = 1.0
    return w


def _mirror_index(l: int) -> np.ndarray:
    """For each of the l DFT slices, the index of its half-stack slice (itself or its mirror)."""
    k = np.arange(l)
    return np.minimum(k, l - k)


def _to_half(*tensors) -> np.ndarray:
    """The independent DFT slices of real (n, p_j, l) tensors, side by side in one half stack.

    The stack is (l//2 + 1, n, p_1 + p_2 + ...): one tensor gives its
    (l//2 + 1, n, p) half stack, and a design and its response give the
    joint [X | y] stack. Each slice is column-major: the stack is the .mT
    view of a C-contiguous (l//2 + 1, p_1 + p_2 + ..., n) array, into which
    one rfft per tensor writes its spectrum. So any layout, C order, the
    F-order view read_tensor returns or a strided view, is transformed
    without a reordered copy of the tensor, and gives the same bits.
    """
    n, _, l = tensors[0].shape
    edges = np.cumsum([0] + [x.shape[1] for x in tensors])
    out = np.empty((l // 2 + 1, edges[-1], n), dtype=np.complex128)
    for x, a, b in zip(tensors, edges, edges[1:]):
        np.fft.rfft(x, axis=2, out=out[:, a:b].transpose(2, 1, 0))
    return out.mT


def _row_energy(stack) -> np.ndarray:
    """Squared norm of every row of every slice of a half stack, as an (l//2 + 1, n) array.

    The stack is read _QR_BLOCK_ROWS rows at a time. A C-contiguous block
    is read in place; any other, such as a block of a column-major half
    stack, is copied first, so no copy of a whole tall stack is made. Each
    row's energy is its own sum, so the blocks give the bits of the whole.
    """
    blocks = np.split(stack, range(_QR_BLOCK_ROWS, stack.shape[-2], _QR_BLOCK_ROWS), axis=-2)
    parts = (np.ascontiguousarray(block).view(np.float64) for block in blocks)
    return np.concatenate([np.einsum("hij,hij->hi", part, part) for part in parts], axis=-1)


def _from_half(blocks, l: int) -> np.ndarray:
    """Inverse of _to_half: a real (n, p, l) tensor from its (l//2 + 1, n, p) slice stack.

    A batch of half stacks (..., l//2 + 1, n, p) gives a batch of tensors
    (..., n, p, l) from one inverse transform. The inverse real DFT drops the
    imaginary part of the self-conjugate slices, so that part is checked
    first, for each tensor of a batch on its own: ImaginaryResidue is raised
    when what would be discarded exceeds IMAG_RESIDUE_TOL relative to that
    tensor.
    """
    spectrum = np.moveaxis(blocks, -3, -1)
    spatial = np.ascontiguousarray(np.fft.irfft(spectrum, n=l, axis=-1))
    own = spectrum[..., [0, -1] if l % 2 == 0 else [0]]
    axes = (-3, -2, -1)
    residue = np.abs(own.imag).max(axis=axes, initial=0.0) / l
    scale = np.maximum(1.0, np.abs(spatial).max(axis=axes, initial=0.0))
    over = residue > IMAG_RESIDUE_TOL * scale
    if over.any():
        k = int(np.argmax(over))
        raise ImaginaryResidue(
            f"imaginary residue {residue.flat[k]:.3e} exceeds "
            f"{IMAG_RESIDUE_TOL:.0e} * {scale.flat[k]:.3e}"
        )
    return spatial


def from_fourier(blocks) -> np.ndarray:
    """Inverse tube DFT back to a real tubal matrix.

    Raises ImaginaryResidue when the imaginary part left by the inverse
    transform exceeds IMAG_RESIDUE_TOL relative to the result's magnitude,
    which signals frontal slices that were not conjugate-symmetric.
    """
    blocks = np.asarray(blocks, dtype=np.complex128)
    if blocks.ndim != 3:
        raise DimensionMismatch(f"expected 3-way slice stack, got shape {blocks.shape}")
    spatial = np.fft.ifft(blocks, axis=2)
    scale = max(1.0, float(np.abs(spatial.real).max(initial=0.0)))
    residue = float(np.abs(spatial.imag).max(initial=0.0))
    if residue > IMAG_RESIDUE_TOL * scale:
        raise ImaginaryResidue(
            f"imaginary residue {residue:.3e} exceeds {IMAG_RESIDUE_TOL:.0e} * {scale:.3e}"
        )
    return np.ascontiguousarray(spatial.real)


def t_product(x, y) -> np.ndarray:
    """Tubal matrix product, computed slice-wise in the DFT domain.

    Only the first l//2 + 1 slice products are formed; the remaining slices
    are conjugate mirrors because both operands are real.
    """
    x = as_tensor(x, "left operand")
    y = as_tensor(y, "right operand")
    if x.shape[1] != y.shape[0] or x.shape[2] != y.shape[2]:
        raise DimensionMismatch(f"cannot multiply {x.shape} by {y.shape}")
    return _from_half(_to_half(x) @ _to_half(y), x.shape[2])


def t_transpose(x) -> np.ndarray:
    """Transpose each frontal slice and reverse the order of slices 2..l."""
    x = as_tensor(x)
    return np.ascontiguousarray(np.roll(x.transpose(1, 0, 2)[:, :, ::-1], 1, axis=2))


def f_diag(v) -> np.ndarray:
    """Place the tubes of a tubal vector (n, 1, l) on the diagonal of an (n, n, l) tensor."""
    v = as_tensor(v, "tubal vector")
    n, one, l = v.shape
    if one != 1:
        raise DimensionMismatch(f"expected an (n, 1, l) tubal vector, got {v.shape}")
    out = np.zeros((n, n, l))
    idx = np.arange(n)
    out[idx, idx, :] = v[:, 0, :]
    return out


def fro_norm(x) -> float:
    """Entrywise Frobenius norm."""
    return float(np.linalg.norm(as_tensor(x)))


def _rank_cutoff(rows, cols):
    """eps * max(rows, cols), elementwise: lstsq's default relative singular-value cutoff."""
    return np.finfo(np.float64).eps * np.maximum(rows, cols)


def default_rank_tol(shape, smax: float) -> float:
    """Default threshold below which a singular value counts as zero: _rank_cutoff * smax."""
    return _rank_cutoff(shape[0], shape[1]) * smax


class ThinTSVD(NamedTuple):
    """Thin tubal SVD factors: x = u * s * t_transpose(v) with tubal rank `rank`.

    `slice_singular_values` keeps the per-DFT-slice singular values of the
    retained factors as a (rank, l) array for rank and conditioning checks.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    rank: int
    slice_singular_values: np.ndarray


def thin_t_svd(x, tol: float | None = None) -> ThinTSVD:
    """Thin tubal SVD via one batched matrix SVD of the independent DFT slices.

    A singular tube is kept when its largest slice value exceeds `tol`,
    default_rank_tol by default; a negative `tol` raises ValueError.
    """
    x = as_tensor(x)
    n, p, l = x.shape
    uh, s, vh = np.linalg.svd(_to_half(x), full_matrices=False)
    sv = s.T[:, _mirror_index(l)]
    if tol is None:
        tol = default_rank_tol((n, p), float(sv.max(initial=0.0)))
    elif tol < 0:
        raise ValueError("tolerance must be nonnegative")
    rank = int(np.count_nonzero(sv.max(axis=1) > tol))
    sh = s[:, :rank, None] * np.eye(rank)
    return ThinTSVD(
        u=_from_half(uh[:, :, :rank], l),
        s=_from_half(sh, l),
        v=_from_half(vh[:, :rank, :].conj().mT, l),
        rank=rank,
        slice_singular_values=sv[:rank, :],
    )


def t_pinv(x) -> np.ndarray:
    """Moore-Penrose inverse, taken slice-wise in the DFT domain."""
    x = as_tensor(x)
    return _from_half(np.linalg.pinv(_to_half(x)), x.shape[2])


# -- block-circulant oracle (testing only) ----------------------------------


def unfold(x) -> np.ndarray:
    """Stack the frontal slices vertically into an (n*l, p) matrix."""
    x = as_tensor(x)
    n, p, l = x.shape
    return x.transpose(2, 0, 1).reshape(n * l, p)


def fold(mat, n: int, l: int) -> np.ndarray:
    """Inverse of unfold for an (n*l, p) matrix."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != n * l:
        raise DimensionMismatch(f"cannot fold shape {mat.shape} into ({n}, ., {l})")
    return np.ascontiguousarray(mat.reshape(l, n, mat.shape[1]).transpose(1, 2, 0))


def bcirc(x) -> np.ndarray:
    """Dense block-circulant embedding of shape (n*l, p*l).

    Block column c holds the frontal slices cyclically shifted down by c.
    Guarded against large instances; this is a brute-force testing oracle.
    """
    x = as_tensor(x)
    n, p, l = x.shape
    if n * l * p * l > BCIRC_MAX_ENTRIES:
        raise ValueError(
            f"block-circulant embedding would hold {n * l * p * l} entries "
            f"(limit {BCIRC_MAX_ENTRIES}); this oracle is for small instances"
        )
    out = np.empty((n * l, p * l))
    for c in range(l):
        for r in range(l):
            out[r * n : (r + 1) * n, c * p : (c + 1) * p] = x[:, :, (r - c) % l]
    return out


def _bcirc_rows(x) -> np.ndarray:
    """The rows of bcirc(x) as a read-only (n, l, p*l) view: entry [i, r] is row r*n + i.

    Row (r, i) of bcirc(x) is x[i, :, (r - c) % l] over the block columns c,
    which is one contiguous p*l window of row i of the tube-reversed design
    laid out twice, tube position before column. So the view reads 2*n*p*l
    floats, not the embedding's n*p*l^2. The matrix baseline reads its rows
    from this view, which a design builds once (_Design.bcirc_rows).
    """
    n, p, l = x.shape
    doubled = np.concatenate([x.transpose(0, 2, 1)[:, ::-1]] * 2, axis=1).reshape(n, 2 * l * p)
    return np.lib.stride_tricks.sliding_window_view(doubled, p * l, axis=1)[:, : l * p : p][:, ::-1]


def bcirc_product(x, y) -> np.ndarray:
    """Brute-force t-product through the dense block-circulant embedding."""
    y = as_tensor(y, "right operand")
    return fold(bcirc(x) @ unfold(y), x.shape[0], x.shape[2])


# -- binary tensor file format ----------------------------------------------


def write_tensor(x, path) -> None:
    """Write a tubal matrix in the .tt binary format.

    Layout: magic "TTEN", u32 LE version, n/p/l as u64 LE, then n*p*l float64
    LE values ordered slice-major with columns varying before rows reversed,
    i.e. index order k (slowest), j, i (fastest).
    """
    x = as_tensor(x)
    n, p, l = x.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(_TT_HEADER, _TT_MAGIC, _TT_VERSION, n, p, l))
        fh.write(x.astype("<f8").ravel(order="F").tobytes())


def read_tensor(path) -> np.ndarray:
    """Read a tubal matrix from the .tt binary format as a read-only float64 (n, p, l) array.

    The payload is read straight into one preallocated (l, p, n) array,
    after its size has been checked against the header, and scanned once
    for non-finite values. The result is the F-order (n, p, l) view of that
    array, not a copy; being read-only, it keeps the scan valid, so
    as_tensor does not repeat it.
    """
    header = struct.calcsize(_TT_HEADER)
    with open(path, "rb") as fh:
        head = fh.read(header)
        if len(head) < header:
            raise FileFormatError(f"{path}: truncated header")
        magic, version, n, p, l = struct.unpack(_TT_HEADER, head)
        if magic != _TT_MAGIC:
            raise FileFormatError(f"{path}: bad magic {magic!r}")
        if version != _TT_VERSION:
            raise FileFormatError(f"{path}: unsupported version {version}")
        size = os.fstat(fh.fileno()).st_size - header
        if size != 8 * n * p * l:
            raise FileFormatError(
                f"{path}: expected {n * p * l} values ({8 * n * p * l} bytes), found {size} bytes"
            )
        data = np.empty((l, p, n), dtype="<f8")
        if fh.readinto(data) != size:
            raise FileFormatError(f"{path}: payload shorter than its {size} bytes")
    data.flags.writeable = False
    try:
        x = as_tensor(data.T, name=str(path))
    except (ValueError, DimensionMismatch) as exc:
        raise FileFormatError(str(exc)) from exc
    _SCANNED[id(x)] = x
    return x
