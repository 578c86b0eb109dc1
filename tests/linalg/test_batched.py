"""Batched kernels against their scalar references, member for member."""

import numpy as np
import pytest

from repro.exceptions import DimensionError, NotSPDError
from repro.linalg.batched import (
    as_spd_stack,
    cholesky_batched,
    cholesky_batched_safe,
    clip_eigenvalues_batched,
    jitter_spd_batched,
    logdet_batched,
    mahalanobis_sq_batched,
    solve_triangular_batched,
    symmetrize_batched,
    whitened_eigh_batched,
)
from repro.linalg.validation import clip_eigenvalues, jitter_spd


def random_spd_stack(rng, b=7, d=4, cond=5.0):
    mats = []
    for _ in range(b):
        a = rng.standard_normal((d, d))
        mats.append(a @ a.T + cond * np.eye(d))
    return np.stack(mats)


class TestAsSpdStack:
    def test_promotes_single_matrix(self, spd5):
        assert as_spd_stack(spd5).shape == (1, 5, 5)

    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionError):
            as_spd_stack(np.zeros((2, 3, 4, 4)))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            as_spd_stack(np.zeros((2, 3, 4)))

    def test_allows_non_finite(self):
        stack = np.full((2, 3, 3), np.nan)
        assert as_spd_stack(stack).shape == (2, 3, 3)


class TestCholeskyBatched:
    def test_matches_scalar_factors(self, rng):
        stack = random_spd_stack(rng)
        chol, ok = cholesky_batched(stack)
        assert ok.all()
        for i in range(stack.shape[0]):
            np.testing.assert_array_equal(chol[i], np.linalg.cholesky(stack[i]))

    def test_bit_identical_to_stacked_lapack(self, rng):
        stack = random_spd_stack(rng, b=16, d=5, cond=5.0)
        chol, ok = cholesky_batched(stack)
        assert ok.all()
        assert np.array_equal(chol, np.linalg.cholesky(stack))

    def test_isolates_indefinite_members(self, rng):
        stack = random_spd_stack(rng, b=9)
        bad = [1, 4, 8]
        for i in bad:
            stack[i] = -np.eye(4)
        chol, ok = cholesky_batched(stack)
        assert sorted(np.flatnonzero(~ok)) == bad
        for i in bad:
            np.testing.assert_array_equal(chol[i], np.zeros((4, 4)))
        for i in np.flatnonzero(ok):
            np.testing.assert_array_equal(chol[i], np.linalg.cholesky(stack[i]))

    def test_masks_non_finite_members(self, rng):
        stack = random_spd_stack(rng, b=3)
        stack[1, 0, 0] = np.nan
        _, ok = cholesky_batched(stack)
        assert list(ok) == [True, False, True]

    def test_all_failing(self):
        _, ok = cholesky_batched(-np.eye(3)[None].repeat(4, axis=0))
        assert not ok.any()


class TestCholeskyBatchedSafe:
    def test_spd_members_take_plain_branch(self, rng):
        stack = random_spd_stack(rng)
        chol, ok = cholesky_batched_safe(stack)
        plain, _ = cholesky_batched(symmetrize_batched(stack))
        assert ok.all()
        np.testing.assert_array_equal(chol, plain)

    def test_jitter_branch_matches_scalar(self, rng):
        # Rank-deficient member: plain Cholesky fails, the jitter retry
        # succeeds and must match the scalar jitter_spd + cholesky exactly.
        v = rng.standard_normal(4)
        singular = np.outer(v, v)
        stack = random_spd_stack(rng, b=3)
        stack[1] = singular
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(singular)
        chol, ok = cholesky_batched_safe(stack, jitter_rel=1e-10)
        assert ok.all()
        expected = np.linalg.cholesky(jitter_spd((singular + singular.T) / 2.0, 1e-10))
        np.testing.assert_allclose(chol[1], expected, rtol=1e-13, atol=0)

    def test_clip_branch_repairs_indefinite(self, rng):
        stack = random_spd_stack(rng, b=3)
        stack[2] = np.diag([1.0, 1.0, 1.0, -0.5])
        _, no_clip = cholesky_batched_safe(stack, clip_floor_rel=None)
        assert list(no_clip) == [True, True, False]
        chol, ok = cholesky_batched_safe(stack, clip_floor_rel=1e-10)
        assert ok.all()
        rebuilt = chol[2] @ chol[2].T
        np.testing.assert_allclose(
            rebuilt, clip_eigenvalues(stack[2], 1e-10), rtol=1e-10, atol=1e-12
        )

    def test_non_finite_member_stays_failed(self, rng):
        stack = random_spd_stack(rng, b=2)
        stack[0] = np.nan
        _, ok = cholesky_batched_safe(stack, clip_floor_rel=1e-10)
        assert list(ok) == [False, True]


class TestSolveTriangularBatched:
    def test_lower_matches_numpy(self, rng):
        stack = random_spd_stack(rng)
        chol, _ = cholesky_batched(stack)
        rhs = rng.standard_normal((stack.shape[0], 4))
        x = solve_triangular_batched(chol, rhs, lower=True)
        for i in range(stack.shape[0]):
            np.testing.assert_allclose(
                x[i], np.linalg.solve(chol[i], rhs[i]), rtol=1e-12, atol=1e-12
            )

    def test_upper_matches_numpy(self, rng):
        stack = random_spd_stack(rng)
        chol, _ = cholesky_batched(stack)
        upper = np.swapaxes(chol, -1, -2)
        rhs = rng.standard_normal((stack.shape[0], 4))
        x = solve_triangular_batched(upper, rhs, lower=False)
        for i in range(stack.shape[0]):
            np.testing.assert_allclose(
                x[i], np.linalg.solve(upper[i], rhs[i]), rtol=1e-12, atol=1e-12
            )

    def test_matrix_rhs(self, rng):
        stack = random_spd_stack(rng, b=3)
        chol, _ = cholesky_batched(stack)
        rhs = rng.standard_normal((3, 4, 6))
        x = solve_triangular_batched(chol, rhs)
        assert x.shape == (3, 4, 6)
        for i in range(3):
            np.testing.assert_allclose(
                x[i], np.linalg.solve(chol[i], rhs[i]), rtol=1e-12, atol=1e-12
            )

    def test_rejects_mismatched_rhs(self, rng):
        stack = random_spd_stack(rng, b=3)
        chol, _ = cholesky_batched(stack)
        with pytest.raises(DimensionError):
            solve_triangular_batched(chol, np.zeros((2, 4)))


class TestLogdetBatched:
    def test_matches_slogdet(self, rng):
        stack = random_spd_stack(rng)
        chol, _ = cholesky_batched(stack)
        got = logdet_batched(chol)
        for i in range(stack.shape[0]):
            sign, expected = np.linalg.slogdet(stack[i])
            assert sign == 1.0
            np.testing.assert_allclose(got[i], expected, rtol=1e-12)


class TestWhitenedEighBatched:
    def test_diagonalises_stack_against_base(self, rng, spd5):
        stack = random_spd_stack(rng, d=5)
        stack[0] = 0.0  # a zero scatter has an all-zero spectrum
        spec = whitened_eigh_batched(stack, spd5)
        eye = np.broadcast_to(np.eye(5), stack.shape)
        np.testing.assert_allclose(
            spec.proj @ spd5 @ np.swapaxes(spec.proj, -1, -2), eye, atol=1e-12
        )
        diag = spec.values[:, :, None] * np.eye(5)
        np.testing.assert_allclose(
            spec.proj @ stack @ np.swapaxes(spec.proj, -1, -2), diag, atol=1e-10
        )
        assert (np.diff(spec.values, axis=1) >= 0.0).all()
        np.testing.assert_allclose(spec.base_logdet, np.linalg.slogdet(spd5)[1], rtol=1e-12)
        np.testing.assert_allclose(spec.base_cond, np.linalg.cond(spd5), rtol=1e-10)

    def test_rejects_indefinite_base(self, rng):
        with pytest.raises(NotSPDError):
            whitened_eigh_batched(random_spd_stack(rng, d=2), np.diag([1.0, -1.0]))

    def test_rejects_mismatched_base(self, rng, spd5):
        with pytest.raises(DimensionError):
            whitened_eigh_batched(random_spd_stack(rng, d=4), spd5)


class TestMahalanobisSqBatched:
    def test_matches_direct_quadratic_form(self, rng):
        stack = random_spd_stack(rng, b=5, d=3)
        chol, _ = cholesky_batched(stack)
        means = rng.standard_normal((5, 3))
        x = rng.standard_normal((11, 3))
        got = mahalanobis_sq_batched(chol, means, x)
        assert got.shape == (5, 11)
        for i in range(5):
            inv = np.linalg.inv(stack[i])
            for j in range(11):
                diff = x[j] - means[i]
                np.testing.assert_allclose(
                    got[i, j], diff @ inv @ diff, rtol=1e-10, atol=1e-12
                )

    def test_matches_explicit_triangular_solve(self, rng):
        stack = random_spd_stack(rng, b=16, d=5, cond=5.0)
        means = rng.standard_normal((16, 5))
        x = rng.standard_normal((9, 5))
        chol, _ = cholesky_batched(stack)
        got = mahalanobis_sq_batched(chol, means, x)
        diff = np.swapaxes(x[None, :, :] - means[:, None, :], -1, -2)
        z = np.linalg.solve(chol, diff)
        np.testing.assert_allclose(got, np.sum(z**2, axis=1), rtol=0, atol=1e-10)

    def test_rejects_mean_shape_mismatch(self, rng):
        stack = random_spd_stack(rng, b=2, d=3)
        chol, _ = cholesky_batched(stack)
        with pytest.raises(DimensionError):
            mahalanobis_sq_batched(chol, np.zeros((3, 3)), np.zeros((4, 3)))

    def test_rejects_sample_width_mismatch(self, rng):
        stack = random_spd_stack(rng, b=2, d=3)
        chol, _ = cholesky_batched(stack)
        with pytest.raises(DimensionError):
            mahalanobis_sq_batched(chol, np.zeros((2, 3)), np.zeros((4, 2)))


class TestRepairHelpers:
    def test_clip_matches_scalar(self, rng):
        stack = random_spd_stack(rng, b=6)
        stack[2] = np.diag([1.0, -1.0, 0.0, 2.0])
        stack[4] = np.zeros((4, 4))
        got = clip_eigenvalues_batched(stack, 1e-10)
        for i in range(6):
            np.testing.assert_allclose(
                got[i], clip_eigenvalues(stack[i], 1e-10), rtol=1e-13, atol=1e-15
            )

    def test_clip_leaves_non_finite_untouched(self):
        stack = np.full((1, 3, 3), np.inf)
        got = clip_eigenvalues_batched(stack)
        assert not np.isfinite(got).any()

    def test_jitter_matches_scalar(self, rng):
        stack = random_spd_stack(rng, b=4)
        stack[3] = np.zeros((4, 4))  # non-positive trace -> unit scale
        got = jitter_spd_batched(stack, 1e-8)
        for i in range(4):
            np.testing.assert_array_equal(got[i], jitter_spd(stack[i], 1e-8))

    def test_symmetrize(self, rng):
        stack = rng.standard_normal((3, 4, 4))
        got = symmetrize_batched(stack)
        np.testing.assert_array_equal(got, (stack + np.swapaxes(stack, -1, -2)) / 2.0)
