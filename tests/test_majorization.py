"""Majorization preorder tests: partial-sum checks, T-transform algebra,
the 2 x 2 chain certificate, and the seeded pair generators.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from stochord import (
    GENERATOR_KINDS,
    GeneratedPair,
    TTransform,
    apply_t_transform,
    as_param_matrix,
    chain_majorize_solve_2x2,
    doubly_stochastic_check,
    generate_hypothesis_pair,
    implication_suite,
    majorize_check,
    pn_membership,
)

SOURCE = [[4.8, 3.4], [2.5, 1.6]]
TRANSFORMED = [[4.03, 4.17], [2.005, 2.095]]


class TestTTransform:
    def test_reference_pair_averaging(self):
        out = apply_t_transform(SOURCE, TTransform(lam=0.45, i=0, j=1))
        assert_allclose(out, TRANSFORMED, atol=1e-12)

    def test_row_sums_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = rng.uniform(0.2, 9.0, size=(2, 5))
            t = TTransform(lam=float(rng.uniform(0, 1)), i=1, j=3)
            out = apply_t_transform(m, t)
            assert_allclose(out.sum(axis=1), m.sum(axis=1), rtol=1e-12)

    def test_matrix_is_doubly_stochastic(self):
        t = TTransform(lam=0.45, i=0, j=1)
        assert doubly_stochastic_check(t.matrix(2))
        assert doubly_stochastic_check(t.matrix(5))

    def test_chain_product_is_doubly_stochastic(self):
        chain = [TTransform(0.45, 0, 1), TTransform(0.2, 2, 3), TTransform(0.9, 1, 2)]
        q = np.eye(4)
        for t in chain:
            q = q @ t.matrix(4)
        assert doubly_stochastic_check(q)
        assert not doubly_stochastic_check(np.array([[0.5, 0.6], [0.5, 0.4]]))
        assert not doubly_stochastic_check(np.ones((2, 3)))

    def test_matrix_application_agrees_with_column_arithmetic(self):
        t = TTransform(lam=0.3, i=0, j=2)
        m = np.array([[1.0, 2.0, 4.0], [8.0, 16.0, 32.0]])
        assert_allclose(apply_t_transform(m, t), m @ t.matrix(3), rtol=1e-14)

    @pytest.mark.parametrize("lam,i,j", [(-0.1, 0, 1), (1.1, 0, 1), (0.5, 1, 1), (0.5, -1, 0)])
    def test_transform_validation(self, lam, i, j):
        with pytest.raises(ValueError):
            TTransform(lam=lam, i=i, j=j)

    def test_column_index_out_of_range(self):
        with pytest.raises(ValueError):
            apply_t_transform(SOURCE, TTransform(0.5, 0, 2))
        with pytest.raises(ValueError):
            TTransform(0.5, 0, 2).matrix(2)

    def test_param_matrix_validation(self):
        with pytest.raises(ValueError):
            as_param_matrix([1.0, 2.0])
        with pytest.raises(ValueError):
            as_param_matrix([[1.0, 2.0], [3.0, 0.0]])
        with pytest.raises(ValueError):
            as_param_matrix([[1.0], [np.inf]])


class TestChainSolve:
    @pytest.mark.parametrize("lam", [0.0, 0.3, 0.45, 0.999, 1.0])
    def test_recovers_mixing_weight(self, lam):
        b = np.array([[4.8, 3.4], [2.5, 1.6]])
        a = apply_t_transform(b, TTransform(lam=lam, i=0, j=1))
        solved = chain_majorize_solve_2x2(a, b)
        assert solved is not None and abs(solved - lam) <= 1e-9

    def test_reference_pair_solves(self):
        solved = chain_majorize_solve_2x2(TRANSFORMED, SOURCE)
        assert solved is not None and abs(solved - 0.45) <= 1e-9

    def test_unreachable_pair_returns_none(self):
        assert chain_majorize_solve_2x2([[1.0, 5.0], [1.0, 5.0]],
                                        [[2.0, 3.0], [2.0, 3.0]]) is None

    def test_cross_row_mismatch_returns_none(self):
        # row 0 pins lam = 0.45 but row 1 disagrees
        a = [[4.03, 4.17], [2.5, 1.6]]
        assert chain_majorize_solve_2x2(a, SOURCE) is None

    def test_identical_columns_degenerate_case(self):
        b = [[2.0, 2.0], [3.0, 3.0]]
        assert chain_majorize_solve_2x2(b, b) == 1.0
        assert chain_majorize_solve_2x2([[2.1, 2.0], [3.0, 3.0]], b) is None

    def test_requires_2x2(self):
        with pytest.raises(ValueError):
            chain_majorize_solve_2x2(np.ones((2, 3)), np.ones((2, 3)))


class TestMajorizeCheck:
    def test_plain_textbook_pair(self):
        assert majorize_check([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], "plain")
        assert not majorize_check([1.0, 2.0, 3.0], [2.0, 2.0, 2.0], "plain")

    def test_self_relation_and_permutation_invariance(self):
        a = [0.4, 1.7, 2.2]
        assert majorize_check(a, a, "plain")
        assert majorize_check([2.2, 0.4, 1.7], [1.7, 2.2, 0.4], "plain")

    def test_weak_sub_drops_total_equality(self):
        assert majorize_check([1.0, 1.0], [1.0, 2.0], "weak_sub")
        assert not majorize_check([1.0, 1.0], [1.0, 2.0], "plain")
        assert not majorize_check([1.0, 1.0], [1.0, 2.0], "weak_super")

    def test_weak_super_uses_ascending_partial_sums(self):
        assert majorize_check([2.0, 2.0], [1.0, 2.0], "weak_super")
        assert not majorize_check([2.0, 2.0], [1.0, 2.0], "plain")
        assert not majorize_check([2.0, 2.0], [1.0, 2.0], "weak_sub")

    def test_validation(self):
        with pytest.raises(ValueError):
            majorize_check([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            majorize_check([1.0, 2.0], [1.0, 2.0], kind="strict")
        with pytest.raises(ValueError):
            majorize_check([[1.0, 2.0]], [[1.0, 2.0]])

    def test_implication_suite_consistency(self):
        plain = implication_suite([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        assert plain.plain and plain.weak_sub and plain.weak_super and plain.consistent
        superonly = implication_suite([2.0, 2.0], [1.0, 2.0])
        assert (not superonly.plain) and superonly.weak_super and superonly.consistent


class TestPnMembership:
    def test_similarly_ordered_rows(self):
        assert pn_membership(TRANSFORMED)
        assert pn_membership(SOURCE)
        assert pn_membership([[1.0, 1.0], [2.0, 3.0]])  # ties allowed

    def test_anti_ordered_rows_rejected(self):
        assert not pn_membership([[1.0, 2.0], [5.0, 3.0]])

    def test_shape_and_sign_requirements(self):
        assert not pn_membership([1.0, 2.0])
        assert not pn_membership([[1.0, 2.0], [3.0, -4.0]])
        assert not pn_membership(np.ones((3, 2)))


class TestGeneratedPairs:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
           kind=st.sampled_from(GENERATOR_KINDS))
    @settings(max_examples=60, deadline=None)
    def test_generated_pair_certifies_its_relation(self, seed, n, kind):
        pair = generate_hypothesis_pair(n, kind, seed=seed)
        assert isinstance(pair, GeneratedPair) and pair.kind == kind
        if kind == "chain":
            assert pair.a.shape == (2, n) and pn_membership(pair.b)
            # right-multiplying by doubly stochastic transforms majorizes row-wise
            for row in range(2):
                assert majorize_check(pair.a[row], pair.b[row], "plain")
        else:
            assert pair.a.shape == (n,)
            assert majorize_check(pair.a, pair.b, kind)

    def test_chain_replay_reproduces_a(self):
        pair = generate_hypothesis_pair(4, "chain", seed=2024, max_transforms=3)
        current = pair.b
        for t in pair.transforms:
            current = apply_t_transform(current, t)
        assert np.array_equal(current, pair.a)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_anti_ordered_chain_starts_outside_pn(self, seed, n):
        pair = generate_hypothesis_pair(n, "chain", seed=seed, anti_ordered=True)
        assert np.all(np.diff(pair.b[0]) > 0) and np.all(np.diff(pair.b[1]) < 0)
        assert not pn_membership(pair.b)
        current = pair.b
        for t in pair.transforms:
            current = apply_t_transform(current, t)
        assert np.array_equal(current, pair.a)
        again = generate_hypothesis_pair(n, "chain", seed=seed, anti_ordered=True)
        assert np.array_equal(again.a, pair.a) and np.array_equal(again.b, pair.b)
        assert again.transforms == pair.transforms

    def test_plain_pair_carries_its_transform_chain(self):
        pair = generate_hypothesis_pair(3, "plain", seed=5)
        assert len(pair.transforms) >= 1
        # replay on a stacked copy, since the public apply works on 2 x n
        current = np.vstack([pair.b, pair.b])
        for t in pair.transforms:
            current = apply_t_transform(current, t)
        assert_allclose(current[0], pair.a, rtol=1e-14)

    def test_weak_pairs_have_no_exact_chain(self):
        for kind in ("weak_sub", "weak_super"):
            assert generate_hypothesis_pair(3, kind, seed=9).transforms == ()

    def test_same_seed_is_bit_identical(self):
        first = generate_hypothesis_pair(5, "chain", seed=123)
        second = generate_hypothesis_pair(5, "chain", seed=123)
        assert np.array_equal(first.a, second.a)
        assert np.array_equal(first.b, second.b)
        assert first.transforms == second.transforms

    def test_transform_count_bounds_respected(self):
        pair = generate_hypothesis_pair(4, "chain", seed=77,
                                        min_transforms=2, max_transforms=2)
        assert len(pair.transforms) == 2

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            generate_hypothesis_pair(1, "plain", seed=0)
        with pytest.raises(ValueError):
            generate_hypothesis_pair(3, "nonsense", seed=0)
        with pytest.raises(ValueError):
            generate_hypothesis_pair(3, "chain", seed=0, min_transforms=0)
