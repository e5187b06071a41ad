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

:func:`eigen_decompose`, :func:`rsbf` and :func:`orthonormalize` sign-fix every column:
its first entry above 1e-12 of its largest magnitude is made real and positive.
:func:`orthonormal_bases` takes an (..., n, K) stack of matrices and
:func:`vector_subspace_angles` an (..., n) stack of vectors against one subspace;
:func:`orthonormalize` and :func:`vector_subspace_angle` are their stacks of one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, DomainError, NumericalError, RankDeficiencyError,
                     check_array, check_count, check_instance, check_real)

_DEFAULT_GAP_TOL = 1e-8
_IMAG_TOL = 1e-10
_RANK_TOL = 1e-10


def _sign_fix(vectors: np.ndarray) -> np.ndarray:
    """The module's sign rule on every column of an (..., n, K) stack at once; C-ordered."""
    mags = np.abs(vectors)
    first = np.argmax(mags > 1e-12 * mags.max(-2, keepdims=True), -2)  # 0 for a zero or NaN column
    pivot = np.take_along_axis(vectors, first[..., None, :], axis=-2)
    if np.iscomplexobj(vectors):
        size = np.hypot(pivot.real, pivot.imag)  # abs(pivot)'s bits; np.abs can differ by an ulp
        turn = np.divide(np.conj(pivot), size, out=np.ones_like(pivot), where=size > 0)
        # a (..., 1, K) factor: numpy's complex multiply then rounds as the column loop's did
        return np.ascontiguousarray(np.where(size > 0, vectors * turn, vectors))
    return np.ascontiguousarray(np.where(pivot < 0, -vectors, vectors))


def _check_orthonormal(bases: np.ndarray) -> np.ndarray:
    """``bases`` itself, when every (n, K) slice has orthonormal columns within 1e-10."""
    gram_err = np.abs(np.swapaxes(bases, -1, -2) @ bases - np.eye(bases.shape[-1])).max()
    if not gram_err <= 1e-10:  # NaN entries fail too
        raise ConfigurationError(f"basis is not orthonormal (max deviation {gram_err:.3e})")
    return bases


@dataclass(frozen=True)
class SpectralDecomposition:
    """Full eigendecomposition, sorted by descending |eigenvalue|."""

    eigenvalues: np.ndarray
    right_vectors: np.ndarray


@dataclass(frozen=True)
class Subspace:
    """K-dimensional subspace carried by an orthonormal basis matrix (n x K)."""

    basis: np.ndarray

    def __post_init__(self):
        basis = check_array("basis", self.basis, ("n", "K"), finite=False)
        object.__setattr__(self, "basis", _check_orthonormal(basis))

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


def eigen_decompose(P: np.ndarray, gap_tol: float = _DEFAULT_GAP_TOL) -> SpectralDecomposition:
    """Eigendecomposition of a square matrix, sorted by descending |eigenvalue|.

    Eigenvectors are unit-norm and sign-fixed, and every eigenpair's residual
    is checked against 1e-8. ``gap_tol`` is unused; it stays in the signature
    because ``perfbench/tracer.py`` binds it by name.
    """
    P = check_array("P", P, ("n", "n"))
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
    return SpectralDecomposition(eigenvalues=values, right_vectors=vectors)


def ebf(P: np.ndarray, K: int) -> Subspace:
    """Span of the K right-eigenvectors whose eigenvalues have the largest real part.

    A complex pair contributes its real and imaginary parts jointly. A warning
    says the span is not unique: K cuts a complex pair (only the real part of
    the straddling pair is kept), or the K-th kept and first dropped
    eigenvalues tie in real part within 1e-8. The span's error is bounded by
    that gap (Stewart 1973), not by the conditioning of the whole eigenbasis.
    """
    check_count("K", K)
    decomp = eigen_decompose(P)
    if K > len(decomp.eigenvalues):
        raise ConfigurationError(f"K must lie in 1..{len(decomp.eigenvalues)}, got {K}")
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
    if i == K < len(values) and values[K - 1].real - values[K].real <= _DEFAULT_GAP_TOL:
        warnings.warn(
            f"eigenvalue real parts tie at the cutoff K={K} within {_DEFAULT_GAP_TOL:g}; "
            "the span is not unique",
            RuntimeWarning,
            stacklevel=2,
        )
    return orthonormalize(np.column_stack(columns))


def resolvent(P: np.ndarray, gamma: float) -> np.ndarray:
    """(I - gamma P)^{-1} by direct solve; residual checked against 1e-10."""
    P = check_array("P", P, ("n", "n"))
    gamma = check_real("gamma", gamma, 0.0, 1.0, high_open=True)
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


def rsbf(P: np.ndarray, gamma: float, K: int) -> Subspace:
    """Top-K principal directions of Psi Psi^T, Psi the resolvent of P.

    These are the top-K left singular vectors of Psi: the principal
    directions of the value covariance under isotropic random rewards. When
    the spectrum of the covariance is degenerate at the cutoff the leading
    directions are not unique; ties are resolved by the stable eigensolver
    order (for Psi = I that yields the first K canonical directions) and a
    warning is emitted.
    """
    check_count("K", K)
    psi = resolvent(P, gamma)
    n = psi.shape[0]
    if K > n:
        raise ConfigurationError(f"K must lie in 1..{n}, got {K}")
    cov = psi @ psi.T
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
    S1, S2 = check_instance("S1", S1, Subspace), check_instance("S2", S2, Subspace)
    if S1.dim != S2.dim:
        raise ConfigurationError(
            f"subspace dimensions differ ({S1.dim} vs {S2.dim}); "
            "use vector_subspace_angle for the unequal-dimension case"
        )
    if S1.ambient_dim != S2.ambient_dim:
        raise ConfigurationError(
            f"subspaces live in different ambient dimensions ({S1.ambient_dim} vs {S2.ambient_dim})")
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
    """Acute angle between a vector and a subspace: :func:`vector_subspace_angles` of one."""
    v = check_array("v", v, (check_instance("S", S, Subspace).ambient_dim,))
    return float(vector_subspace_angles(v, S))


def vector_subspace_angles(V: np.ndarray, S: Subspace) -> np.ndarray:
    """Acute angles in [0, pi/2] between each vector of an (..., n) stack and one subspace.

    Computed as atan2(||v - Pv||, ||Pv||), which stays accurate near both
    endpoints (arccos of the cosine loses half the digits near 0).
    """
    V = check_array("V", V, (..., check_instance("S", S, Subspace).ambient_dim))
    if not V.any(axis=-1).all():
        raise DomainError("cannot measure the angle of the zero vector")
    # one (1, n) product per vector, so no angle depends on the rest of its stack
    proj = ((V[..., None, :] @ S.basis) @ S.basis.T)[..., 0, :]
    return np.arctan2(np.linalg.norm(V - proj, axis=-1), np.linalg.norm(proj, axis=-1))


def orthonormalize(M: np.ndarray) -> Subspace:
    """Orthonormal basis of the column space of ``M``: :func:`orthonormal_bases` of one matrix."""
    return Subspace(orthonormal_bases(check_array("M", M, ("n", "K"))[None])[0])


def orthonormal_bases(M: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the column spaces of an (..., n, K) stack (SVD-based, sign-fixed).

    Raises :class:`RankDeficiencyError` when ``M`` has more columns than rows
    or a slice's smallest singular value falls below 1e-10 of its largest,
    reporting the first such slice's numerical rank.
    """
    M = check_array("M", M, (..., "n", "K"))
    try:
        U, svals, _ = np.linalg.svd(M, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise NumericalError(f"SVD failed: {exc}") from exc
    bad = (M.shape[-1] > M.shape[-2]) | (svals[..., -1] <= _RANK_TOL * svals[..., 0])
    if bad.any():
        svals = svals.reshape(-1, svals.shape[-1])[np.argmax(bad.reshape(-1))]
        rank = int(np.sum(svals > _RANK_TOL * max(svals[0], 1.0)))
        raise RankDeficiencyError(f"columns are numerically dependent (rank {rank} of "
                                  f"{M.shape[-1]})", numerical_rank=rank)
    return _check_orthonormal(_sign_fix(U))
