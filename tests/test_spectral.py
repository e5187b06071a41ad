import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repdyn as rd
from repdyn import spectral
from repdyn.experiments import chain_drift
from repdyn.errors import ConfigurationError, DomainError, RankDeficiencyError


def random_subspace(rng, n, k):
    return rd.orthonormalize(rng.standard_normal((n, k)))


def uniform_chain():
    m = rd.build_chain_mdp(30, 0.01, 2.0, 1.0)
    return rd.induce(m, rd.Policy.uniform(30, 2), 0.9)


def test_eigen_decompose_identity_keeps_tied_order():
    # every magnitude ties, and the stable sort keeps LAPACK's canonical basis
    d = rd.eigen_decompose(np.eye(4))
    np.testing.assert_allclose(d.eigenvalues, np.ones(4))
    np.testing.assert_array_equal(d.right_vectors, np.eye(4))


def test_eigen_decompose_doubly_stochastic_2x2():
    d = rd.eigen_decompose(np.array([[0.5, 0.5], [0.5, 0.5]]))
    np.testing.assert_allclose(sorted(np.abs(d.eigenvalues)), [0.0, 1.0], atol=1e-12)
    top = d.right_vectors[:, 0].real
    np.testing.assert_allclose(top, np.ones(2) / np.sqrt(2), atol=1e-12)


def test_eigen_decompose_residual_and_sorting():
    rng = np.random.default_rng(0)
    P = rng.dirichlet(np.ones(8), size=8)
    d = rd.eigen_decompose(P)
    mags = np.abs(d.eigenvalues)
    assert np.all(mags[:-1] >= mags[1:] - 1e-14)
    res = np.linalg.norm(P @ d.right_vectors - d.right_vectors * d.eigenvalues, axis=0)
    assert res.max() < 1e-8


def test_ebf_k1_is_constant_direction():
    chain = uniform_chain()
    top = rd.ebf(chain.transition, 1)
    direction = top.basis[:, 0]
    assert np.abs(direction - direction.mean()).max() < 1e-10


def test_ebf_matches_symmetric_eigensolver_oracle():
    # the four-rooms uniform walk is symmetric: eigh is an independent oracle
    rooms, policy = rd.build_four_rooms()
    P = rd.induce(rooms, policy, 0.9).transition
    assert np.abs(P - P.T).max() < 1e-15
    lam, vecs = np.linalg.eigh(P)
    oracle = rd.orthonormalize(vecs[:, np.argsort(lam)[::-1][:6]])
    span = rd.ebf(P, 6)
    assert rd.grassmann_distance(span, oracle).distance < 1e-8


def test_ebf_rejects_bad_k():
    with pytest.raises(ConfigurationError):
        rd.ebf(np.eye(3), 4)


def test_ebf_warns_on_assumption_violation():
    with pytest.warns(RuntimeWarning, match="tie at the cutoff"):
        rd.ebf(np.eye(3), 2)


@pytest.mark.parametrize("K", [1, 2])
def test_ebf_ignores_ties_away_from_its_cutoff(K):
    # |0.5| = |-0.5| ties in magnitude, but the real parts 1, 0.5, -0.5 are
    # separated at either cutoff, so the span is unique
    P = np.diag([1.0, 0.5, -0.5])
    span = rd.ebf(P, K)
    np.testing.assert_allclose(span.basis, np.eye(3)[:, :K], atol=1e-15)


def test_ebf_warns_when_k_cuts_a_complex_pair():
    m = rd.build_chain_mdp(30, 0.01, 2.0, 1.0)
    drift = rd.induce(m, rd.Policy.deterministic(np.zeros(30, int), 2), 0.9)
    with pytest.warns(RuntimeWarning, match="complex conjugate pair"):
        rd.ebf(drift.transition, 4)


def test_resolvent_gamma_zero_and_row_sums():
    chain = uniform_chain()
    np.testing.assert_allclose(rd.resolvent(chain.transition, 0.0), np.eye(30), atol=1e-14)
    psi = rd.resolvent(chain.transition, 0.9)
    np.testing.assert_allclose(psi @ np.ones(30), np.ones(30) / 0.1, rtol=1e-10)


def test_resolvent_matches_neumann_series_oracle():
    chain = uniform_chain()
    psi = rd.resolvent(chain.transition, 0.9)
    series = np.zeros((30, 30))
    term = np.eye(30)
    for _ in range(201):
        series += term
        term = 0.9 * chain.transition @ term
    assert np.abs(psi - series).max() < 1e-8


def test_rsbf_equals_ebf_for_symmetric_transition():
    rooms, policy = rd.build_four_rooms()
    P = rd.induce(rooms, policy, 0.9).transition
    for k in (1, 2, 4):
        d = rd.grassmann_distance(rd.rsbf(P, 0.9, k), rd.ebf(P, k)).distance
        assert d < 1e-6


def test_rsbf_degenerate_gamma_zero():
    with pytest.warns(RuntimeWarning):
        span = rd.rsbf(np.eye(5), 0.0, 2)
    np.testing.assert_allclose(np.abs(span.basis), np.eye(5)[:, :2], atol=1e-12)


def test_rsbf_matches_resolvent_svd_oracle():
    # on the drifting chain rsbf and ebf part ways; the top-K left singular
    # vectors of an explicitly inverted (I - gamma P) are an independent oracle
    m = rd.build_chain_mdp(30, 0.01, 2.0, 1.0)
    P = rd.induce(m, rd.Policy.deterministic(np.zeros(30, int), 2), 0.9).transition
    U, _, _ = np.linalg.svd(np.linalg.inv(np.eye(30) - 0.9 * P))
    for K in (1, 3, 5):
        span = rd.rsbf(P, 0.9, K)
        assert rd.grassmann_distance(span, rd.Subspace(U[:, :K])).distance < 1e-10
        assert rd.grassmann_distance(span, rd.ebf(P, K)).distance > 1e-2


def test_rsbf_trace_dominates_random_subspaces():
    chain = uniform_chain()
    psi = rd.resolvent(chain.transition, 0.9)
    best = rd.rsbf(chain.transition, 0.9, 4)
    best_trace = np.linalg.norm(best.basis.T @ psi) ** 2
    rng = np.random.default_rng(7)
    for _ in range(50):
        trace = np.linalg.norm(random_subspace(rng, 30, 4).basis.T @ psi) ** 2
        assert trace < best_trace


def test_grassmann_distance_basic_cases():
    e1 = rd.Subspace(np.eye(2)[:, :1])
    e2 = rd.Subspace(np.eye(2)[:, 1:])
    assert rd.grassmann_distance(e1, e1).distance == 0.0
    assert rd.grassmann_distance(e1, e2).distance == pytest.approx(np.pi / 2, abs=1e-12)


def test_grassmann_distance_rotated_plane():
    # two planes sharing e1, the second rotated by theta about it
    theta = 0.37
    s1 = rd.Subspace(np.eye(3)[:, :2])
    b2 = np.column_stack([np.eye(3)[:, 0],
                          [0.0, np.cos(theta), np.sin(theta)]])
    s2 = rd.Subspace(b2)
    result = rd.grassmann_distance(s1, s2)
    assert result.distance == pytest.approx(theta, abs=1e-12)
    np.testing.assert_allclose(result.angles, [0.0, theta], atol=1e-12)


def test_grassmann_distance_dimension_mismatch():
    with pytest.raises(ConfigurationError):
        rd.grassmann_distance(rd.Subspace(np.eye(3)[:, :1]), rd.Subspace(np.eye(3)[:, :2]))


def test_grassmann_metric_properties():
    rng = np.random.default_rng(11)
    for _ in range(60):
        a, b, c = (random_subspace(rng, 12, 3) for _ in range(3))
        dab = rd.grassmann_distance(a, b).distance
        dba = rd.grassmann_distance(b, a).distance
        assert dab == pytest.approx(dba, abs=1e-12)
        dac = rd.grassmann_distance(a, c).distance
        dcb = rd.grassmann_distance(c, b).distance
        assert dab <= dac + dcb + 1e-8


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8), data=st.data(),
       scales=st.tuples(*[st.sampled_from([1e-9, 1e-5, 1e-2, 1.0, 1e3])] * 2))
def test_grassmann_distance_obeys_the_triangle_inequality(seed, n, data, scales):
    # geodesic distance on the Grassmannian is a metric (Edelman, Arias & Smith 1998);
    # b and c are perturbations of a, so small angles take the sine branch
    k = data.draw(st.integers(1, n - 1))
    rng = np.random.default_rng(seed)
    a = random_subspace(rng, n, k)
    b, c = (rd.orthonormalize(a.basis + scale * rng.standard_normal((n, k))) for scale in scales)
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        dxy = rd.grassmann_distance(x, y).distance
        dxz = rd.grassmann_distance(x, z).distance
        dzy = rd.grassmann_distance(z, y).distance
        assert dxy <= dxz + dzy + 1e-12


def test_grassmann_rotation_invariance():
    rng = np.random.default_rng(13)
    a = random_subspace(rng, 10, 3)
    b = random_subspace(rng, 10, 3)
    base = rd.grassmann_distance(a, b).distance
    for _ in range(10):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated = rd.Subspace(a.basis @ q)
        assert abs(rd.grassmann_distance(rotated, b).distance - base) < 1e-10


def test_vector_subspace_angle_cases():
    s = rd.Subspace(np.eye(3)[:, :1])
    assert rd.vector_subspace_angle(np.array([2.0, 0, 0]), s) < 1e-12
    assert rd.vector_subspace_angle(np.array([0, 3.0, 0]), s) == pytest.approx(np.pi / 2)
    assert rd.vector_subspace_angle(np.array([1.0, 1.0, 0]), s) == pytest.approx(np.pi / 4)
    with pytest.raises(DomainError):
        rd.vector_subspace_angle(np.zeros(3), s)


def test_orthonormalize_preserves_span_and_scales():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((30, 4))
    a = rd.orthonormalize(m)
    b = rd.orthonormalize(7.0 * m)
    assert rd.grassmann_distance(a, b).distance < 1e-10
    # projector oracle from the normal equations
    projector = m @ np.linalg.solve(m.T @ m, m.T)
    np.testing.assert_allclose(a.basis @ a.basis.T, projector, atol=1e-8)


def test_orthonormalize_rank_deficient():
    m = np.ones((5, 2))
    with pytest.raises(RankDeficiencyError) as info:
        rd.orthonormalize(m)
    assert info.value.numerical_rank == 1
    # more columns than rows: full row rank is still short of one per column
    with pytest.raises(RankDeficiencyError, match=r"rank 2 of 3") as info:
        rd.orthonormalize(np.random.default_rng(0).standard_normal((2, 3)))
    assert info.value.numerical_rank == 2


def test_subspace_validation():
    with pytest.raises(ConfigurationError):
        rd.Subspace(np.ones((4, 2)))


def test_subspace_rejects_a_nan_basis():
    with pytest.raises(ConfigurationError, match="not orthonormal"):
        rd.Subspace(np.full((3, 1), np.nan))



SPAN_CHAINS = {
    "drift": lambda: chain_drift(0.9, 0.75),
    "uniform": uniform_chain,
    "four-rooms": lambda: rd.induce(*rd.build_four_rooms(), 0.9),
}
SPANS = {  # span of a chain's transition matrix at K, and its bound in Grassmann distance
    "ebf": (lambda P, gamma, K: rd.ebf(P, K), 1e-9),
    "rsbf": (lambda P, gamma, K: rd.rsbf(P, gamma, K), 1e-12),
}


@pytest.mark.parametrize("chain_name", SPAN_CHAINS)
@pytest.mark.parametrize("span_name", SPANS)
def test_relabelling_states_permutes_every_span(span_name, chain_name):
    # spans of Pi P Pi^T are Pi times the spans of P; ebf's error follows its
    # eigengap conditioning, rsbf's the well-separated singular spectrum
    chain = SPAN_CHAINS[chain_name]()
    span, bound = SPANS[span_name]
    P, n = chain.transition, chain.n_states
    rng = np.random.default_rng(75)
    for K in (1, 2, 4):
        basis = span(P, chain.gamma, K).basis
        for _ in range(5):
            perm = rng.permutation(n)
            moved = span(P[perm][:, perm], chain.gamma, K)
            assert rd.grassmann_distance(moved, rd.Subspace(basis[perm])).distance <= bound


def sign_fix_by_columns(vectors):
    """The sign rule one column at a time: the reference for ``spectral._sign_fix``."""
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


def sign_fix_column(kind, n, is_complex, rng):
    """One column of ``kind``: random, zero (signed zeros), holding a NaN, or led by
    entries below or exactly at 1e-12 of the column's largest magnitude."""
    col = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 301)
    if is_complex:
        col = col + 1j * rng.standard_normal(n) * np.abs(col).max()
    if kind == "zero":
        return col * 0.0
    if kind == "nan":
        col[rng.integers(n)] = np.nan
    elif kind != "random" and n > 1:
        lead = rng.integers(1, n)
        top = np.abs(col[lead:]).max()
        if kind == "below-threshold":
            col[:lead] *= 1e-13 * top / np.abs(col[:lead]).max()
        else:
            signs = [1.0, -1.0, 1j, -1j] if is_complex else [1.0, -1.0]
            col[:lead] = 1e-12 * top * rng.choice(signs, lead)
    return col


SIGN_FIX_LAYOUTS = {
    "C": lambda m: m,
    "F": np.asfortranarray,  # rsbf passes V[:, order][:, :K], which is Fortran-ordered
    "strided": lambda m: np.repeat(np.repeat(m, 2, axis=-2), 3, axis=-1)[..., ::-2, ::3],
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8), is_complex=st.booleans(),
       kinds=st.lists(st.sampled_from(["random", "zero", "nan", "below-threshold",
                                       "at-threshold"]), max_size=6),
       layout=st.sampled_from(sorted(SIGN_FIX_LAYOUTS)), stack=st.integers(0, 3))
def test_sign_fix_equals_the_column_loop_bit_for_bit(seed, n, is_complex, kinds, layout, stack):
    """One (n, K) matrix when ``stack`` is 0, else every slice of an (S, n, K) stack."""
    rng = np.random.default_rng(seed)
    matrices = np.zeros((max(stack, 1), n, len(kinds)), complex if is_complex else float)
    for matrix in matrices:
        for j, kind in enumerate(kinds):
            matrix[:, j] = sign_fix_column(kind, n, is_complex, rng)
    vectors = SIGN_FIX_LAYOUTS[layout](matrices if stack else matrices[0])
    before = vectors.tobytes()
    fixed = spectral._sign_fix(vectors)
    reference = (np.stack([sign_fix_by_columns(m) for m in vectors]) if stack
                 else sign_fix_by_columns(vectors))
    assert fixed.flags.c_contiguous and reference.flags.c_contiguous
    assert fixed.dtype == reference.dtype and fixed.shape == reference.shape
    assert fixed.tobytes() == reference.tobytes()
    assert vectors.tobytes() == before


def orthonormalize_or_error(matrix):
    """``orthonormalize(matrix).basis``, or the typed error it raises."""
    try:
        return rd.orthonormalize(matrix).basis
    except (ConfigurationError, RankDeficiencyError) as exc:
        return exc


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), stack=st.integers(1, 4), n=st.integers(1, 8),
       K=st.integers(1, 9), flaw=st.sampled_from(["none", "dependent", "nan"]),
       at=st.integers(0, 3))
@example(seed=0, stack=3, n=4, K=5, flaw="none", at=0)
@example(seed=1, stack=3, n=6, K=3, flaw="dependent", at=1)
@example(seed=2, stack=3, n=6, K=1, flaw="dependent", at=2)
@example(seed=3, stack=3, n=6, K=3, flaw="nan", at=2)
def test_a_stack_of_bases_is_each_slice_orthonormalized_bit_for_bit(seed, stack, n, K, flaw, at):
    """Slice i of ``orthonormal_bases(M)`` is ``orthonormalize(M[i]).basis``; a stack that
    holds a NaN raises the NaN error, and else one with a refused slice raises the error
    of its first such slice, numerical rank included (K > n refuses every slice)."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((stack, n, K)) * 10.0 ** rng.integers(-100, 101, (stack, 1, 1))
    at %= stack
    if flaw == "dependent":
        M[at, :, -1] = 2.0 * M[at, :, 0] if K > 1 else 0.0
    elif flaw == "nan":
        M[at, rng.integers(n), rng.integers(K)] = np.nan
    results = [orthonormalize_or_error(matrix) for matrix in M]
    errors = [r for r in results if isinstance(r, Exception)]
    if not errors:
        bases = rd.orthonormal_bases(M)
        assert bases.flags.c_contiguous and bases.shape == M.shape
        assert all(basis.tobytes() == ref.tobytes() for basis, ref in zip(bases, results))
        return
    expected = next((e for e in errors if isinstance(e, ConfigurationError)), errors[0])
    with pytest.raises(type(expected)) as info:
        rd.orthonormal_bases(M)
    assert str(info.value) == str(expected)
    assert getattr(info.value, "numerical_rank", None) == getattr(expected, "numerical_rank",
                                                                  None)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), k=st.integers(1, 12),
       shape=st.lists(st.integers(1, 4), max_size=2), zero=st.booleans())
def test_a_stack_of_angles_agrees_with_one_vector_calls(seed, n, k, shape, zero):
    """Within 4 ulps of ``vector_subspace_angle`` per vector; a zero vector anywhere in
    the stack raises."""
    rng = np.random.default_rng(seed)
    S = random_subspace(rng, n, min(k, n))
    V = rng.standard_normal((*shape, n)) * 10.0 ** rng.integers(-100, 101)
    rows = V.reshape(-1, n)
    if zero:
        rows[rng.integers(len(rows))] = 0.0
        with pytest.raises(DomainError, match="cannot measure the angle of the zero vector"):
            rd.vector_subspace_angles(V, S)
        return
    angles = rd.vector_subspace_angles(V, S)
    singles = np.array([rd.vector_subspace_angle(v, S) for v in rows]).reshape(shape)
    assert angles.shape == tuple(shape)
    assert np.all((0.0 <= angles) & (angles <= np.pi / 2))
    assert np.all(np.abs(angles - singles) <= 4 * np.spacing(singles))
