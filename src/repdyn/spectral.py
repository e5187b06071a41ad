"""Spectral decompositions of transition matrices and subspace geometry.

Two feature families live here. Eigen-basis features are right-eigenvectors
of a transition matrix; the span returned by :func:`ebf` picks the K
eigenvalues with the largest real part, because those are the modes with the
slowest decay rates 1 - gamma*lambda under the learning flows this package
studies (for stochastic matrices with negative eigenvalues, magnitude
ordering would interleave fast-decaying alternating modes into the span).
Resolvent singular features are the principal directions of the value
covariance induced by isotropic random rewards.

Subspaces are compared through principal angles; the distance used throughout
is the Euclidean norm of those angles.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError, NumericalError, RankDeficiencyError

_DEFAULT_GAP_TOL = 1e-8
_IMAG_TOL = 1e-10
_RANK_TOL = 1e-10


def _sign_fix(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant entry is real and positive."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        mags = np.abs(col)
        idx = int(np.argmax(mags > 1e-12 * mags.max())) if mags.max() > 0 else 0
        pivot = col[idx]
        if np.iscomplexobj(col):
            if abs(pivot) > 0:
                out[:, k] = col * (np.conj(pivot) / abs(pivot))
        elif pivot < 0:
            out[:, k] = -col
    return out


@dataclass(frozen=True)
class SpectralDecomposition:
    """Full eigendecomposition, magnitude-sorted, with diagnosability flags."""

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    assumption_ok: bool
    diagnostics: list = field(default_factory=list)


@dataclass(frozen=True)
class Subspace:
    """K-dimensional subspace carried by an orthonormal basis matrix (n x K)."""

    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim != 2:
            raise ConfigurationError("basis must be a 2-d array")
        gram_err = np.abs(basis.T @ basis - np.eye(basis.shape[1])).max()
        if not gram_err <= 1e-10:  # NaN entries fail too
            raise ConfigurationError(f"basis is not orthonormal (max deviation {gram_err:.3e})")
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]


@dataclass(frozen=True)
class PrincipalAngles:
    """Ascending principal angles in [0, pi/2] and their Euclidean norm."""

    angles: np.ndarray
    distance: float


def _check_square(P) -> np.ndarray:
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ConfigurationError("P must be square")
    if not np.all(np.isfinite(P)):
        raise ConfigurationError("P entries must be finite")
    return P


def eigen_decompose(P: np.ndarray, gap_tol: float = _DEFAULT_GAP_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a square matrix, sorted by descending |eigenvalue|.

    Diagnostics flag complex pairs, magnitude ties within ``gap_tol`` and an
    ill-conditioned eigenvector matrix (the practical symptom of a defective
    matrix); ``assumption_ok`` is true only when all eigenvalues are real and
    consecutive magnitudes are separated by more than ``gap_tol``.
    """
    P = _check_square(P)
    try:
        values, vectors = np.linalg.eig(P)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(-np.abs(values), kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    vectors = _sign_fix(vectors)

    residual = np.linalg.norm(P @ vectors - vectors * values, axis=0).max()
    if residual > 1e-8 * max(1.0, np.linalg.norm(P)):
        raise NumericalError(f"eigenpair residual {residual:.3e} exceeds 1e-8")

    diagnostics = []
    if np.abs(values.imag).max(initial=0.0) > _IMAG_TOL:
        diagnostics.append("complex eigenvalue pairs present")
    mags = np.abs(values)
    if np.any(mags[:-1] - mags[1:] <= gap_tol):
        diagnostics.append(f"eigenvalue magnitudes tie within gap_tol={gap_tol:g}")
    cond = np.linalg.cond(vectors)
    if cond > 1e12:
        diagnostics.append(
            f"eigenvector matrix condition {cond:.2e}; matrix may not be diagonalisable"
        )
    return SpectralDecomposition(
        eigenvalues=values,
        right_vectors=vectors,
        assumption_ok=not diagnostics,
        diagnostics=diagnostics,
    )


def ebf(P: np.ndarray, K: int, gap_tol: float = _DEFAULT_GAP_TOL) -> Subspace:
    """Span of the K right-eigenvectors whose eigenvalues have the largest real part.

    A complex pair contributes its real and imaginary parts jointly. A warning
    says the span is not unique: K cuts a complex pair (only the real part of
    the straddling pair is kept), or the K-th kept and first dropped
    eigenvalues tie in real part within ``gap_tol``. The span's error is
    bounded by that gap (Stewart 1973), not by the conditioning of the whole
    eigenbasis, so :func:`eigen_decompose`'s whole-matrix diagnostics do not warn.
    """
    P = _check_square(P)
    if not 1 <= K <= P.shape[0]:
        raise ConfigurationError(f"K must lie in 1..{P.shape[0]}, got {K}")
    decomp = eigen_decompose(P, gap_tol=gap_tol)
    order = np.argsort(-decomp.eigenvalues.real, kind="stable")
    values = decomp.eigenvalues[order]
    vectors = decomp.right_vectors[:, order]

    columns = []
    i = 0
    while len(columns) < K and i < len(values):
        if abs(values[i].imag) <= _IMAG_TOL:
            columns.append(vectors[:, i].real)
            i += 1
            continue
        # conjugate pair: adjacent after sorting by real part
        if len(columns) + 2 <= K:
            columns.append(vectors[:, i].real)
            columns.append(vectors[:, i].imag)
        else:
            warnings.warn(
                "K cuts through a complex conjugate pair; keeping its real part only",
                RuntimeWarning,
                stacklevel=2,
            )
            columns.append(vectors[:, i].real)
        i += 2
    # i == K unless the cutoff split a pair, which has warned already
    if i == K < len(values) and values[K - 1].real - values[K].real <= gap_tol:
        warnings.warn(
            f"eigenvalue real parts tie at the cutoff K={K} within gap_tol={gap_tol:g}; "
            "the span is not unique",
            RuntimeWarning,
            stacklevel=2,
        )
    return orthonormalize(np.column_stack(columns))


def resolvent(P: np.ndarray, gamma: float) -> np.ndarray:
    """(I - gamma P)^{-1} by direct solve; residual checked against 1e-10."""
    P = _check_square(P)
    if not 0.0 <= gamma < 1.0:
        raise ConfigurationError(f"gamma must lie in [0, 1), got {gamma}")
    n = P.shape[0]
    A = np.eye(n) - gamma * P
    try:
        psi = np.linalg.solve(A, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"resolvent solve failed: {exc}") from exc
    residual = np.linalg.norm(psi @ A - np.eye(n))
    if not residual <= 1e-10:
        raise NumericalError(f"resolvent residual {residual:.3e} exceeds 1e-10")
    return psi


def rsbf(P: np.ndarray, gamma: float, K: int, sigma: np.ndarray | None = None) -> Subspace:
    """Top-K principal directions of Psi Sigma Psi^T, Psi the resolvent of P.

    These are the left singular vectors of Psi Sigma^{1/2}; sigma=None means
    the canonical isotropic case Sigma = I. When the spectrum of the
    covariance is degenerate at the cutoff the leading directions are not
    unique; ties are resolved by the stable eigensolver order (for Psi = I
    that yields the first K canonical directions) and a warning is emitted.
    """
    P = _check_square(P)
    n = P.shape[0]
    if not 1 <= K <= n:
        raise ConfigurationError(f"K must lie in 1..{n}, got {K}")
    psi = resolvent(P, gamma)
    if sigma is None:
        cov = psi @ psi.T
    else:
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (n, n):
            raise ConfigurationError("sigma must match the state-space size")
        if not np.all(np.isfinite(sigma)):
            raise ConfigurationError("sigma entries must be finite")
        if np.abs(sigma - sigma.T).max() > 1e-10:
            raise ConfigurationError("sigma must be symmetric")
        eigvals = np.linalg.eigvalsh(sigma)
        if eigvals.min() < -1e-10 * max(eigvals.max(), 1.0):
            raise ConfigurationError("sigma must be positive semi-definite")
        cov = psi @ sigma @ psi.T
    cov = (cov + cov.T) / 2.0
    w, V = np.linalg.eigh(cov)
    order = np.argsort(-w, kind="stable")
    w = w[order]
    V = V[:, order]
    svals = np.sqrt(np.clip(w, 0.0, None))
    if K < n and svals[K - 1] - svals[K] <= _DEFAULT_GAP_TOL * max(svals[0], 1.0):
        warnings.warn(
            "singular spectrum degenerate at the cutoff; leading directions are not unique",
            RuntimeWarning,
            stacklevel=2,
        )
    return Subspace(_sign_fix(V[:, :K]))


def grassmann_distance(S1: Subspace, S2: Subspace) -> PrincipalAngles:
    """Principal angles between two equal-dimension subspaces and their 2-norm.

    Small angles come from the sine-based singular values of (I - P_1) Y_2,
    large ones from the cosines of Y_1^T Y_2; arccos alone cannot resolve
    angles below sqrt(eps).
    """
    if S1.dim != S2.dim:
        raise ConfigurationError(
            f"subspace dimensions differ ({S1.dim} vs {S2.dim}); "
            "use vector_subspace_angle for the unequal-dimension case"
        )
    # canonical argument order makes d(a, b) and d(b, a) bitwise identical
    if S2.basis.tobytes() < S1.basis.tobytes():
        S1, S2 = S2, S1
    cross = S1.basis.T @ S2.basis
    cosines = np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0)
    theta_cos = np.sort(np.arccos(cosines))
    sines = np.clip(np.linalg.svd(S2.basis - S1.basis @ cross, compute_uv=False), 0.0, 1.0)
    theta_sin = np.sort(np.arcsin(sines))
    angles = np.where(theta_cos < np.pi / 4.0, theta_sin, theta_cos)
    return PrincipalAngles(angles=angles, distance=float(np.linalg.norm(angles)))


def vector_subspace_angle(v: np.ndarray, S: Subspace) -> float:
    """Acute angle between a vector and a subspace, in [0, pi/2].

    Computed as atan2(||v - Pv||, ||Pv||), which stays accurate near both
    endpoints (arccos of the cosine loses half the digits near 0).
    """
    v = np.asarray(v, dtype=float).reshape(-1)
    norm = np.linalg.norm(v)
    if not np.isfinite(norm):
        raise ConfigurationError("vector entries must be finite")
    if norm == 0.0:
        raise DomainError("cannot measure the angle of the zero vector")
    coeff = S.basis.T @ v
    proj = S.basis @ coeff
    return float(np.arctan2(np.linalg.norm(v - proj), np.linalg.norm(proj)))


def orthonormalize(M: np.ndarray) -> Subspace:
    """Orthonormal basis of the column space of ``M`` (SVD-based, sign-fixed).

    Raises :class:`RankDeficiencyError` when the smallest singular value falls
    below 1e-10 of the largest, reporting the numerical rank.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M[:, None]
    try:
        U, svals, _ = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        # NaN entries make LAPACK fail; checking for them only here keeps the
        # finiteness scan off the common path (bayes-opt calls this 1,000 times)
        if not np.all(np.isfinite(M)):
            raise ConfigurationError("M entries must be finite") from None
        raise NumericalError(f"SVD failed: {exc}") from exc  # pragma: no cover
    if svals[0] == 0.0 or svals[-1] <= _RANK_TOL * svals[0]:
        rank = int(np.sum(svals > _RANK_TOL * max(svals[0], 1.0)))
        raise RankDeficiencyError(
            f"columns are numerically dependent (rank {rank} of {M.shape[1]})",
            numerical_rank=rank,
        )
    return Subspace(_sign_fix(U[:, : M.shape[1]]))
