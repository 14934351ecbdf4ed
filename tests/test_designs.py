"""Validation, group re-indexing, group fits and residual cache maintenance."""
import tracemalloc

import numpy as np
import pytest

from bivas import (
    EmOptions,
    GroupedDesign,
    ModelParams,
    MultiTaskData,
    VariationalState,
    elbo,
    estep_sweep,
    initial_params,
    mstep_update,
    refresh_residual,
    validate_design,
)
from bivas.designs import _solve_cho, group_fits, group_fits_python
from bivas.exceptions import (
    DimensionMismatch,
    EmptyGroup,
    NaNPresent,
    NonNumeric,
    RankDeficientZ,
)

from conftest import HAVE_COMPILER, random_grouped, random_state, sweep_cases


def _simple(n=10, p=3, labels=(7, 7, 9)):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((n, p))
    Z = np.ones((n, 1))
    y = rng.standard_normal(n)
    return y, Z, X, list(labels)


class TestValidateDesign:
    def test_dense_reindex(self):
        y, Z, X, labels = _simple()
        d = validate_design(y, Z, X, labels)
        assert d.K == 2
        assert np.bincount(d.group_of).tolist() == [2, 1]
        assert d.group_of.tolist() == [0, 0, 1]
        assert d.group_labels == [7, 9]

    def test_string_labels(self):
        y, Z, X, _ = _simple()
        d = validate_design(y, Z, X, ["geneB", "geneA", "geneB"])
        assert d.K == 2
        assert d.group_of.tolist() == [0, 1, 0]
        assert d.group_labels == ["geneB", "geneA"]

    def test_intercept_only_covariate(self):
        y, Z, X, labels = _simple()
        d = validate_design(y, Z, X, labels)
        assert d.r == 1

    def test_duplicated_z_column_rank_deficient(self):
        y, _, X, labels = _simple()
        Z = np.column_stack([np.ones(10), np.ones(10)])
        with pytest.raises(RankDeficientZ):
            validate_design(y, Z, X, labels)

    def test_nan_rejected(self):
        y, Z, X, labels = _simple()
        X[3, 1] = np.nan
        with pytest.raises(NaNPresent):
            validate_design(y, Z, X, labels)

    def test_non_numeric_rejected(self):
        y, Z, X, labels = _simple()
        with pytest.raises(NonNumeric):
            validate_design(["a"] * 10, Z, X, labels)

    def test_dimension_mismatch(self):
        y, Z, X, labels = _simple()
        with pytest.raises(DimensionMismatch):
            validate_design(y[:-1], Z, X, labels)
        with pytest.raises(DimensionMismatch):
            validate_design(y, Z, X, labels[:-1])

    def test_empty_group_from_dense_ids(self):
        y, Z, X, _ = _simple()
        with pytest.raises(EmptyGroup):
            GroupedDesign(y, Z, X, np.array([0, 0, 2]))

    def test_standardize_records_transform(self):
        y, Z, X, labels = _simple()
        d = validate_design(y, Z, X, labels, standardize=True)
        assert np.allclose(d.X.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(d.X.std(axis=0), 1.0, atol=1e-12)
        assert d.x_center is not None and d.x_scale is not None

    @pytest.mark.parametrize("n,p", [(1, 3), (9, 1), (130, 2), (40, 300),
                                     (400, 100), (9000, 3)])
    @pytest.mark.parametrize("layout", ["C", "F", "view"])
    def test_standardize_bits_and_caller_array(self, n, p, layout):
        # the moments are numpy's mean and std over the columns of a
        # Fortran-order X, whatever the layout given: a table's predictors
        # arrive as a row-major view of its parsed block, and were a
        # Fortran-order copy of it before.  Only the design's own copy is
        # standardized.
        rng = np.random.default_rng(6)
        block = rng.standard_normal((n, p + 3)) \
            * 10.0 ** rng.integers(-3, 4, p + 3)
        block[:, 2] = 2.5                         # a constant column
        X = {"C": np.ascontiguousarray(block[:, 2:-1]),
             "F": np.asfortranarray(block[:, 2:-1]),
             "view": block[:, 2:-1]}[layout]
        held, given = block.copy(), X.copy(order="A")
        ref = np.asfortranarray(X)
        center, sd = ref.mean(axis=0), ref.std(axis=0)
        scale = np.where(sd > 0, sd, 1.0)
        Z = np.ones((n, 1)) if n > 1 else np.zeros((n, 0))   # r < n
        d = validate_design(rng.standard_normal(n), Z, X, np.zeros(p, int),
                            standardize=True)
        assert d.x_center.tobytes() == center.tobytes()
        assert d.x_scale.tobytes() == scale.tobytes()
        assert d.X.tobytes(order="F") \
            == ((ref - center) / scale).tobytes(order="F")
        assert block.tobytes() == held.tobytes()
        assert X.tobytes(order="A") == given.tobytes(order="A")

    def test_reindex_bijection_preserves_sizes(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(100, 120, 50).tolist()
        y = rng.standard_normal(60)
        X = rng.standard_normal((60, 50))
        d = validate_design(y, np.ones((60, 1)), X, labels)
        seen = {}
        for lab, k in zip(labels, d.group_of):
            seen.setdefault(lab, set()).add(int(k))
        # one dense id per label, and sizes carried over
        assert all(len(v) == 1 for v in seen.values())
        for lab, ids in seen.items():
            k = next(iter(ids))
            assert np.bincount(d.group_of)[k] == labels.count(lab)

    def test_cached_column_norms(self):
        rng = np.random.default_rng(5)
        d = random_grouped(rng)
        direct = np.array([float(d.X[:, j] @ d.X[:, j]) for j in range(d.p)])
        np.testing.assert_allclose(d.xtx, direct, rtol=1e-14, atol=0)


class TestGroupedMembers:
    def test_member_order_and_group_edges(self):
        # interleaved labels, so each group's members are a gather of X
        rng = np.random.default_rng(8)
        d = random_grouped(rng, n=7, sizes=[16, 7, 8, 1, 21], interleave=True)
        assert d.members.dtype == np.int64 and d.group_ptr.dtype == np.int64
        np.testing.assert_array_equal(d.group_ptr,
                                      np.cumsum([0, 16, 7, 8, 1, 21]))
        for k, idx in enumerate(d.group_members):
            # the group's columns in column order, as views of members
            np.testing.assert_array_equal(
                idx, d.members[d.group_ptr[k]:d.group_ptr[k + 1]])
            np.testing.assert_array_equal(idx, np.flatnonzero(d.group_of == k))
            assert np.shares_memory(idx, d.members)

    def test_with_response_shares_members(self):
        rng = np.random.default_rng(9)
        d = random_grouped(rng, interleave=True)
        other = d.with_response(rng.standard_normal(d.n))
        for name in ("members", "group_ptr", "group_members", "X"):
            assert getattr(other, name) is getattr(d, name)

    def test_no_predictors_empty_members(self):
        n = 5
        d = GroupedDesign(np.zeros(n), np.ones((n, 1)), np.empty((n, 0)),
                          np.empty(0, dtype=int))
        assert d.members.size == 0 and d.members.dtype == np.int64
        assert d.group_ptr.tolist() == [0] and d.group_members == []


def _held_bytes(obj):
    """Bytes of every array an object holds, each counted once at its base
    (views followed to the array that owns the memory), looking inside
    lists, tuples and dicts."""
    held = {}

    def walk(value):
        if isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            held[id(value)] = value.nbytes
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)
        elif isinstance(value, dict):
            for item in value.values():
                walk(item)

    walk(vars(obj))
    return sum(held.values())


class TestDesignMemory:
    @pytest.mark.parametrize("standardize", [False, True],
                             ids=["raw", "standardized"])
    def test_holds_x_once(self, standardize):
        # X, Z and y, plus O(n + p + K) numbers of per-column and
        # per-group caches: no copy of X and nothing of size p * n beside it
        rng = np.random.default_rng(12)
        n, sizes = 40, [90, 3, 120, 1, 45, 41]
        p = sum(sizes)
        labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        d = validate_design(rng.standard_normal(n), np.ones((n, 1)),
                            rng.standard_normal((n, p)), labels,
                            standardize=standardize)
        assert d.p == p and d.K == len(sizes)
        budget = d.X.nbytes + d.Z.nbytes + d.y.nbytes \
            + 64 * (d.n + d.p + d.K)
        assert _held_bytes(d) <= budget

    def test_multitask_holds_each_x_once(self):
        # every X_j, Z_j and y_j once, plus O(L (n_j + K)) numbers; K is
        # above every n_j, so a cache of size K * n_j would not fit
        rng = np.random.default_rng(13)
        K, ns = 150, (40, 25, 60)
        data = MultiTaskData([(rng.standard_normal(n), np.ones((n, 1)),
                               rng.standard_normal((n, K))) for n in ns])
        assert K > max(data.n)
        held = sum(a.nbytes for a in (*data.X, *data.Z, *data.y))
        budget = held + 64 * data.L * (max(data.n) + K)
        assert _held_bytes(data) <= budget


class TestModelParams:
    def test_clamps_and_floors(self):
        p = ModelParams(alpha=0.0, pi=1.0, sigma_beta2=0.0, sigma_e2=-1.0,
                        omega=np.zeros(1))
        assert p.alpha == 1e-12
        assert p.pi == 1.0 - 1e-12
        assert p.sigma_beta2 == 1e-10
        assert p.sigma_e2 == 1e-10


class TestGroupFits:
    @pytest.mark.parametrize("fits", sweep_cases(group_fits, group_fits_python))
    def test_matches_direct_formula(self, rng, fits):
        # G[k] = X_k w_k from the full design, over groups wider than n,
        # singleton groups, a zero-norm column and p = 0
        cases = [dict(n=7, sizes=[16, 1, 9]), dict(n=5, sizes=[11, 5, 6]),
                 dict(n=15, sizes=[1, 1, 1, 1]),
                 dict(n=12, sizes=[3, 4], zero_col=2),
                 dict(n=9, sizes=[20, 2]), dict(n=20, sizes=[2, 7, 1, 4])]
        for case in cases:
            zero_col = case.pop("zero_col", None)
            d = random_grouped(rng, **case)
            if zero_col is not None:
                X = d.X.copy()
                X[:, zero_col] = 0.0
                d = GroupedDesign(d.y, d.Z, X, d.group_of)
            w = rng.standard_normal(d.p)
            got = fits(d, w)
            assert got.shape == (d.fit_groups.size, d.n)
            assert got.flags.c_contiguous
            # a row for each group of two or more members, and none else
            assert d.fit_groups.tolist() == np.flatnonzero(np.bincount(d.group_of) > 1).tolist()
            for k in d.fit_groups:
                idx = d.group_members[k]
                want = d.X[:, idx] @ w[idx]
                assert np.abs(got[d.fit_row[k]] - want).max() \
                    <= 1e-12 * np.abs(want).max()
        n = 6
        d = GroupedDesign(np.arange(n, dtype=float), np.ones((n, 1)),
                          np.empty((n, 0)), np.empty(0, dtype=int))
        assert fits(d, np.zeros(0)).shape == (0, n)

    @pytest.mark.skipif(not HAVE_COMPILER, reason="no C compiler")
    def test_kernel_rejects_bad_arrays(self, rng):
        d = random_grouped(rng, n=20, sizes=[3, 2])
        with pytest.raises(ValueError, match="w has shape"):
            group_fits(d, np.ones(d.p + 1))


class TestRefreshResidual:
    def test_zero_state_gives_y(self):
        rng = np.random.default_rng(1)
        d = random_grouped(rng)
        params = ModelParams(alpha=0.1, pi=0.1, sigma_beta2=1.0, sigma_e2=1.0,
                             omega=np.zeros(d.r))
        state = VariationalState.initial(d, params)
        refresh_residual(state, d, params)
        np.testing.assert_allclose(state.residual, d.y, atol=0)

    def test_single_predictor_substitution(self):
        n = 6
        X = np.zeros((n, 1))
        X[0, 0] = 1.0      # basis column e_1
        y = np.zeros(n)
        d = GroupedDesign(y, np.ones((n, 1)), X, np.array([0]))
        params = ModelParams(alpha=0.5, pi=0.5, sigma_beta2=1.0, sigma_e2=1.0,
                             omega=np.zeros(1))
        state = VariationalState.initial(d, params)
        state.mu[0] = 2.0
        state.alpha_jk[:] = 1.0 - 1e-12
        state.pi_k[:] = 1.0 - 1e-12
        refresh_residual(state, d, params)
        expected = -2.0 * X[:, 0]
        np.testing.assert_allclose(state.residual, expected, atol=1e-11)

    def test_matches_incremental_sweep_maintenance(self, rng):
        for _ in range(5):
            d = random_grouped(rng)
            params = initial_params(d, pi=0.4)
            state = random_state(rng, d, params)
            for _ in range(3):
                estep_sweep(state, d, params)
            incremental = state.residual.copy()
            inc_groups = [g.copy() for g in state.group_fit]
            refresh_residual(state, d, params)
            scale = 1.0 + np.abs(state.residual).max()
            assert np.abs(incremental - state.residual).max() / scale < 1e-8
            for g_inc, g_new in zip(inc_groups, state.group_fit):
                gs = 1.0 + np.abs(g_new).max()
                assert np.abs(g_inc - g_new).max() / gs < 1e-8

    def test_idempotent(self, rng):
        d = random_grouped(rng)
        params = initial_params(d, pi=0.3)
        state = random_state(rng, d, params)
        refresh_residual(state, d, params)
        first = state.residual.copy()
        refresh_residual(state, d, params)
        np.testing.assert_array_equal(first, state.residual)

    def test_forms_group_fits_in_place(self, kernel_path):
        # a from-scratch refresh forms the (M, n) group fits straight into
        # the state's array: traced from before the state is built, the
        # peak holds that array once, not a second one beside it
        rng = np.random.default_rng(3)
        n, p = 1000, 1000
        d = GroupedDesign(rng.standard_normal(n), np.ones((n, 1)),
                          rng.standard_normal((n, p)), np.arange(p) // 10)
        params = initial_params(d, pi=0.3)
        refresh_residual(random_state(rng, d, params), d, params)   # warm
        posterior = random_state(rng, d, params)
        tracemalloc.start()
        try:
            state = VariationalState(d, posterior)
            refresh_residual(state, d, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(state.group_fit, posterior.group_fit)
        assert peak < 1.5 * state.group_fit.nbytes

    def test_bound_and_mstep_leave_the_state(self, rng):
        # a standalone bound or M-step forms its own group fits
        d = random_grouped(rng)
        params = initial_params(d, pi=0.3)
        state = random_state(rng, d, params)
        estep_sweep(state, d, params)
        caches = state.group_fit.copy(), state.residual.copy()
        elbo(state, d, params)
        mstep_update(state, d, params, EmOptions())
        np.testing.assert_array_equal(state.group_fit, caches[0])
        np.testing.assert_array_equal(state.residual, caches[1])


class TestSolveCho:
    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_matches_a_dense_solve(self, rng, r):
        # the factor cached on the design solves Z'Z w = rhs; Z holds an
        # intercept, and columns of unequal scale from r = 3 on
        for _ in range(50):
            n = int(rng.integers(r + 1, 40))
            Z = np.column_stack([np.ones(n)] + [
                rng.standard_normal(n) * 10.0 ** j for j in range(r - 1)])
            d = GroupedDesign(rng.standard_normal(n), Z,
                              rng.standard_normal((n, 2)), [0, 0])
            rhs = rng.standard_normal(r) * 10.0 ** rng.uniform(-3, 3)
            want = np.linalg.solve(Z.T @ Z, rhs)
            got = _solve_cho(d._z_cho, rhs)
            assert got.shape == (r,)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestMultiTaskData:
    def test_requires_equal_feature_count(self):
        rng = np.random.default_rng(2)
        t1 = (rng.standard_normal(10), np.ones((10, 1)),
              rng.standard_normal((10, 3)))
        t2 = (rng.standard_normal(8), np.ones((8, 1)),
              rng.standard_normal((8, 4)))
        with pytest.raises(DimensionMismatch):
            MultiTaskData([t1, t2])

    def test_per_task_rank_check(self):
        rng = np.random.default_rng(3)
        Z_bad = np.column_stack([np.ones(10), np.ones(10)])
        t1 = (rng.standard_normal(10), Z_bad, rng.standard_normal((10, 3)))
        with pytest.raises(RankDeficientZ):
            MultiTaskData([t1])

    def test_rejects_nan(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((10, 3))
        X[0, 0] = np.inf
        with pytest.raises(NaNPresent):
            MultiTaskData([(rng.standard_normal(10), np.ones((10, 1)), X)])
