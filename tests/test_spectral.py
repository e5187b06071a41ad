import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repdyn as rd
from repdyn.errors import ConfigurationError, DomainError, RankDeficiencyError


def random_subspace(rng, n, k):
    return rd.orthonormalize(rng.standard_normal((n, k)))


def uniform_chain():
    m = rd.build_chain_mdp(30, 0.01, 2.0, 1.0)
    return rd.induce(m, rd.Policy.uniform(30, 2), 0.9)


def test_eigen_decompose_identity_flags_ties():
    d = rd.eigen_decompose(np.eye(4))
    np.testing.assert_allclose(d.eigenvalues, np.ones(4))
    assert not d.assumption_ok
    assert any("tie" in msg for msg in d.diagnostics)


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
    assert any("tie" in msg for msg in rd.eigen_decompose(P).diagnostics)


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


def test_rsbf_rejects_non_psd_sigma():
    chain = uniform_chain()
    with pytest.raises(ConfigurationError):
        rd.rsbf(chain.transition, 0.9, 2, sigma=-np.eye(30))


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


def test_subspace_validation():
    with pytest.raises(ConfigurationError):
        rd.Subspace(np.ones((4, 2)))


def test_subspace_rejects_a_nan_basis():
    with pytest.raises(ConfigurationError, match="not orthonormal"):
        rd.Subspace(np.full((3, 1), np.nan))

