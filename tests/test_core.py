import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dsbench.core import (DISSIMILARITY, DataMatrix, DimensionError,
                          MultiSample, StatValue, distance_matrix, pool,
                          stable_argsort)


def ms_from(*mats):
    return MultiSample(tuple(DataMatrix(m) for m in mats))


class TestDataMatrix:
    def test_shape_and_accessors(self):
        dm = DataMatrix(np.arange(6.0).reshape(3, 2))
        assert dm.n == 3 and dm.p == 2

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            DataMatrix(np.array([[1.0, np.nan]]))

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            DataMatrix(np.empty((0, 2)))

    def test_values_are_immutable(self):
        dm = DataMatrix(np.ones((2, 2)))
        with pytest.raises(ValueError):
            dm.values[0, 0] = 3.0


class TestMultiSample:
    def test_requires_two_samples(self):
        with pytest.raises(DimensionError):
            MultiSample((DataMatrix(np.ones((2, 2))),))

    def test_p_mismatch_is_dimension_error(self):
        with pytest.raises(DimensionError):
            ms_from(np.ones((2, 2)), np.ones((2, 3)))


class TestPool:
    def test_sizes_and_labels(self):
        ms = ms_from(np.zeros((2, 3)), np.ones((3, 3)))
        pooled, labels = pool(ms)
        assert pooled.n == 5
        assert labels.tolist() == [1, 1, 2, 2, 2]

    def test_singletons_k4(self):
        ms = ms_from(*[np.full((1, 2), float(i)) for i in range(4)])
        _, labels = pool(ms)
        assert labels.tolist() == [1, 2, 3, 4]

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=2, max_size=4),
           st.integers(1, 4), st.integers(0, 10 ** 6))
    def test_pool_concatenates_in_order(self, sizes, p, seed):
        rng = np.random.default_rng(seed)
        mats = [rng.normal(size=(n, p)) for n in sizes]
        pooled, labels = pool(ms_from(*mats))
        assert pooled.n == sum(sizes)
        starts = np.cumsum([0, *sizes])
        for i, orig in enumerate(mats):
            rows = slice(starts[i], starts[i + 1])
            assert (pooled.values[rows] == orig).all()
            assert (labels[rows] == i + 1).all()


class TestDistanceMatrix:
    def test_three_four_five(self):
        d = distance_matrix(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert d[0, 1] == 5.0

    def test_identical_rows(self):
        d = distance_matrix(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert d[0, 1] == 0.0

    def test_one_dimensional_rows(self):
        d = distance_matrix(np.array([[0.0], [1.0], [3.0]]))
        assert d[0, 1] == 1.0 and d[0, 2] == 3.0 and d[1, 2] == 2.0

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, (6, 3), elements=st.floats(-50, 50)))
    def test_symmetry_zero_diag_triangle(self, values):
        d = distance_matrix(values)
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()
        rng = np.random.default_rng(0)
        for _ in range(10):
            i, j, k = rng.integers(0, 6, size=3)
            assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class TestStatValue:
    def test_requires_finite_unless_error(self):
        with pytest.raises(ValueError):
            StatValue("m", float("nan"), DISSIMILARITY)

    def test_error_allows_nan(self):
        sv = StatValue("m", float("nan"), DISSIMILARITY, error="boom")
        assert not sv.ok

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            StatValue("m", 1.0, "sideways")


class TestStableArgsort:
    @pytest.mark.parametrize("name, a", [
        ("random", np.random.default_rng(0).normal(size=500)),
        ("tied", np.random.default_rng(1).integers(0, 4, 300).astype(float)),
        ("all_equal", np.full(40, 2.5)),
        ("inf", np.array([np.inf, 1.0, -np.inf, np.inf, 1.0, -np.inf, 0.0])),
        ("single", np.array([3.0])),
        ("empty", np.array([])),
        ("int", np.random.default_rng(2).integers(0, 3, 50)),
        ("random_2d", np.random.default_rng(3).normal(size=(20, 30))),
        ("tied_2d", np.random.default_rng(4).integers(0, 3, (20, 30))
         .astype(float)),
        ("all_equal_2d", np.zeros((6, 9))),
        ("inf_2d", np.where(np.eye(8, dtype=bool), np.inf,
                            np.random.default_rng(5).integers(0, 2, (8, 8))
                            .astype(float))),
    ])
    def test_equals_stable_kind(self, name, a):
        for axis in range(-a.ndim, a.ndim):
            ours = stable_argsort(a, axis=axis)
            assert np.array_equal(ours, np.argsort(a, axis=axis,
                                                   kind="stable")), axis

    @settings(max_examples=30, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 12),
                                        st.integers(1, 12)),
                  elements=st.sampled_from([-np.inf, -1.0, 0.0, 0.5, 2.0,
                                            np.inf])))
    def test_equals_stable_kind_on_tie_heavy_input(self, a):
        for axis in (0, 1):
            assert np.array_equal(stable_argsort(a, axis=axis),
                                  np.argsort(a, axis=axis, kind="stable"))
