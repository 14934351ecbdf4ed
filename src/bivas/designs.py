"""Domain types and validation for grouped and multi-task regression data.

The two data containers (:class:`GroupedDesign`, :class:`MultiTaskData`) are
immutable after construction and safe to share across threads.  Each task
(a grouped design has one) is checked and laid out by one helper, which
also factors its Z'Z.  The containers cache everything the EM engine
(:mod:`bivas.group_fit`) reads repeatedly: per-column squared norms, the
inverse Cholesky factors, the parameter class it fits, and one layout that
the kernel, the Python sweep, the fit pass and the refresh read on either
container: each coefficient lies in a row block (``block_of``; a task, or
the one block of a grouped design) and is column ``column_of`` of its
block's X; a multi-task feature is a group with one member per task.
Group members are one index array with group edges, and the groups with
several members in a block (only a grouped design has them) keep a fit
row.  The sweep reads each coefficient's column from X, which each
container holds once, and nothing of size p * n is kept beside it.
:class:`VariationalState` is the single mutable object, on both
containers: a :class:`Posterior` with the working caches the sweep
maintains.  One EM run owns one state, and what the run returns, or a
later run starts from, is its posterior alone.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _sweep
from .exceptions import (
    DimensionMismatch,
    EmptyGroup,
    NaNPresent,
    NonNumeric,
    RankDeficientZ,
)

# Probabilities are kept inside [PROB_EPS, 1 - PROB_EPS] and variances above
# VAR_FLOOR so logits and entropy terms never hit log(0) or divide by zero.
PROB_EPS = 1e-12
VAR_FLOOR = 1e-10

# Z'Z is declared rank deficient when its smallest eigenvalue falls below
# this fraction of the largest.
_Z_RANK_RTOL = 1e-10


def clamp_prob(x):
    """Clamp a probability (scalar or array) to [PROB_EPS, 1 - PROB_EPS]."""
    return np.clip(x, PROB_EPS, 1.0 - PROB_EPS)


def floor_var(x):
    """Floor a variance (scalar or array) at VAR_FLOOR."""
    return np.maximum(x, VAR_FLOOR)


def _as_float_array(a, name):
    try:
        out = np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise NonNumeric(f"{name} contains non-numeric entries: {exc}") from None
    # min and max are NaN when any entry is, and infinite when one is: the
    # check needs no mask the size of the array
    if out.size and not (np.isfinite(out.min()) and np.isfinite(out.max())):
        raise NaNPresent(f"{name} contains NaN or infinite entries")
    return out


def _task(y, Z, X, where=""):
    """One task's arrays, checked -> (y, Z, X, :func:`_cho_factor` of Z'Z
    or None when r = 0): finite floats, y flat, Z in C and X in Fortran order
    (a vector is one column), rows agreeing, r < n and Z'Z of full rank
    (smallest eigenvalue at least _Z_RANK_RTOL x largest).  ``where``
    ("task t: ") starts every message."""
    y = _as_float_array(y, where + "y").ravel()
    Z = np.ascontiguousarray(_as_float_array(Z, where + "Z"))
    X = np.asfortranarray(_as_float_array(X, where + "X"))
    Z = Z[:, None] if Z.ndim == 1 else Z
    X = np.asfortranarray(X[:, None]) if X.ndim == 1 else X
    n, r = y.shape[0], Z.shape[1]
    if Z.shape[0] != n or X.shape[0] != n:
        raise DimensionMismatch(f"{where}rows disagree: y has {n}, Z has "
                                f"{Z.shape[0]}, X has {X.shape[0]}")
    if r >= n:
        raise DimensionMismatch(f"{where}need r < n, got r={r}, n={n}")
    if not r:
        return y, Z, X, None
    gram = Z.T @ Z
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] < _Z_RANK_RTOL * max(eigs[-1], 0.0) or eigs[0] <= 0.0:
        raise RankDeficientZ(f"{where}Z'Z smallest eigenvalue {eigs[0]:.3e} "
                             f"below {_Z_RANK_RTOL:g} x largest {eigs[-1]:.3e}")
    return y, Z, X, _cho_factor(gram)


def _cho_factor(a):
    """R^-1 for the upper Cholesky factor R of a symmetric positive
    definite ``a`` = R'R: all that :func:`_solve_cho` needs, formed once."""
    return np.linalg.inv(np.linalg.cholesky(a)).T


def _solve_cho(cho, rhs):
    """Solve a w = rhs from ``cho``, the :func:`_cho_factor` R^-1 of a
    (None when a has no rows), as w = R^-1 (R^-T rhs): two small
    products, no substitution loop.  For a 1 x 1 a that is
    (rhs * (1 / sqrt(a))) * (1 / sqrt(a)), rounded as a LAPACK Cholesky
    solve that multiplies by the reciprocal diagonal rounds it."""
    if cho is None:
        return np.zeros(0)
    return cho.dot(rhs.dot(cho))


@dataclass
class ModelParams:
    """Model parameters: inclusion priors, variances and fixed effects.

    ``alpha`` and ``pi`` are clamped to [PROB_EPS, 1 - PROB_EPS] and the
    variances floored at VAR_FLOOR on construction.
    """

    alpha: float
    pi: float
    sigma_beta2: float
    sigma_e2: float
    omega: np.ndarray

    def __post_init__(self):
        self.alpha = float(clamp_prob(self.alpha))
        self.pi = float(clamp_prob(self.pi))
        self.sigma_beta2 = float(floor_var(self.sigma_beta2))
        self.sigma_e2 = float(floor_var(self.sigma_e2))
        self.omega = np.asarray(self.omega, dtype=np.float64).ravel()

    @classmethod
    def from_tasks(cls, alpha, pi, tasks):
        """From the priors and the one task's (omega, sigma_e2, sigma_beta2)."""
        ((omega, sigma_e2, sigma_beta2),) = tasks
        return cls(alpha=alpha, pi=pi, sigma_beta2=sigma_beta2,
                   sigma_e2=sigma_e2, omega=omega)


@dataclass
class MultiTaskParams:
    """Shared inclusion priors with per-task variances and fixed effects."""

    alpha: float
    pi: float
    sigma_beta2: np.ndarray   # (L,)
    sigma_e2: np.ndarray      # (L,)
    omega: list = field(default_factory=list)   # L vectors, lengths r_j

    def __post_init__(self):
        self.alpha = float(clamp_prob(self.alpha))
        self.pi = float(clamp_prob(self.pi))
        self.sigma_beta2 = floor_var(np.asarray(self.sigma_beta2, float).ravel())
        self.sigma_e2 = floor_var(np.asarray(self.sigma_e2, float).ravel())
        self.omega = [np.asarray(w, float).ravel() for w in self.omega]

    @classmethod
    def from_tasks(cls, alpha, pi, tasks):
        """From the priors and each task's (omega, sigma_e2, sigma_beta2)."""
        omega, sigma_e2, sigma_beta2 = zip(*tasks)
        return cls(alpha=alpha, pi=pi, sigma_beta2=sigma_beta2,
                   sigma_e2=sigma_e2, omega=list(omega))


def reindex_groups(labels):
    """Map arbitrary group labels to dense ids in [0, K).

    Ids are assigned in order of first appearance, so the mapping is a
    bijection on the observed labels and group sizes are preserved.
    Returns ``(group_of, unique_labels)``.
    """
    seen: dict = {}
    group_of = np.empty(len(labels), dtype=np.intp)
    uniques = []
    for j, lab in enumerate(labels):
        key = lab.item() if isinstance(lab, np.generic) else lab
        if key not in seen:
            seen[key] = len(uniques)
            uniques.append(key)
        group_of[j] = seen[key]
    return group_of, uniques


class GroupedDesign:
    """Response y, covariates Z and grouped predictors X for one regression.

    Parameters
    ----------
    y : (n,) response vector.
    Z : (n, r) fixed-covariate matrix, typically including an intercept
        column; must have full column rank and r < n.
    X : (n, p) predictor matrix.
    group_of : length-p dense group ids in [0, K).  Use
        :func:`validate_design` to build a design from raw labels.
    group_labels : optional original labels, index k -> label.
    predictor_names, covariate_names : optional column names used by IO.
    x_center, x_scale : optional per-column affine transform that was
        applied to X (recorded so predictions can apply the same one).

    Cached on construction and shared by :meth:`with_response`: ``xtx``
    (per-column squared norms), Z'Z's :func:`_cho_factor` and the
    layout of one row block: ``block_of`` is 0 and ``column_of`` j for
    column j (int64).  ``members`` (int64) lists the columns group by
    group, in column order within a group, and group k holds
    ``members[group_ptr[k]:group_ptr[k + 1]]`` (``group_ptr`` is int64,
    K + 1 edges).  ``group_members`` are each group's views of
    ``members``.  The groups of two or more members, ``fit_groups``
    (int64), keep a fit: group k's is row ``fit_row[k]`` of the state's
    ``group_fit``, and ``fit_row`` is -1 for a singleton group.  The EM
    engine (:mod:`bivas.group_fit`) sees one task, and fits
    ``_params``, :class:`ModelParams`.
    """

    _params = ModelParams

    def __init__(self, y, Z, X, group_of, *, group_labels=None,
                 predictor_names=None, covariate_names=None,
                 x_center=None, x_scale=None):
        self.y, self.Z, self.X, self._z_cho = _task(y, Z, X)
        self.n, self.r = self.Z.shape
        self.p = self.X.shape[1]

        group_of = np.asarray(group_of)
        if group_of.shape != (self.p,):
            raise DimensionMismatch(
                f"group_of has shape {group_of.shape}, expected ({self.p},)"
            )
        if group_of.size and not np.issubdtype(group_of.dtype, np.integer):
            raise NonNumeric("group_of must hold integer ids; "
                             "use validate_design for raw labels")
        self.group_of = group_of.astype(np.intp)
        self.K = int(self.group_of.max()) + 1 if self.p else 0
        sizes = np.bincount(self.group_of, minlength=self.K)
        if np.any(sizes == 0):
            empty = np.nonzero(sizes == 0)[0]
            raise EmptyGroup(f"group ids with no members: {empty.tolist()}")

        self.group_labels = list(group_labels) if group_labels is not None \
            else list(range(self.K))
        self.predictor_names = list(predictor_names) if predictor_names is not None \
            else [f"x{j}" for j in range(self.p)]
        self.covariate_names = list(covariate_names) if covariate_names is not None \
            else [f"z{j}" for j in range(self.r)]
        self.x_center = None if x_center is None else np.asarray(x_center, float)
        self.x_scale = None if x_scale is None else np.asarray(x_scale, float)

        # caches used by every sweep
        self.xtx = np.einsum("ij,ij->j", self.X, self.X)
        self.block_of = np.zeros(self.p, np.int64)
        self.column_of = np.arange(self.p, dtype=np.int64)
        self.members = np.argsort(self.group_of, kind="stable").astype(np.int64)
        self.group_ptr = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        self.group_members = np.split(self.members, self.group_ptr[1:-1]) \
            if self.K else []
        self.fit_groups = np.flatnonzero(sizes > 1).astype(np.int64)
        self.fit_row = np.full(self.K, -1, np.int64)
        self.fit_row[self.fit_groups] = np.arange(self.fit_groups.size)

    @staticmethod
    def per_block(value):
        """A block-wise value (y, Z, X, omega, the residual) as a list over
        the design's one block.  ``per_block(v.T)`` lists a coefficient
        array's per-block coefficients on either container."""
        return [value]

    def with_response(self, y):
        """Return a copy sharing all X/Z caches but carrying a new response."""
        y = _as_float_array(y, "y").ravel()
        if y.shape[0] != self.n:
            raise DimensionMismatch(f"y has {y.shape[0]} rows, design has {self.n}")
        out = copy.copy(self)
        out.y = y
        return out


def validate_design(y, Z, X, groups, *, standardize=False,
                    predictor_names=None, covariate_names=None):
    """Build a :class:`GroupedDesign` from a parsed numeric table.

    ``groups`` may use arbitrary integer or string labels; they are
    re-indexed densely to [0, K) in order of first appearance.  When
    ``standardize`` is true, predictor columns are centered and scaled to
    unit standard deviation (constant columns are centered only) and the
    transform is recorded on the design; ``X`` itself is never written.
    """
    X = _as_float_array(X, "X")
    if X.ndim == 1:
        X = X[:, None]
    groups = list(np.asarray(groups).ravel())
    if len(groups) != X.shape[1]:
        raise DimensionMismatch(
            f"{len(groups)} group labels for {X.shape[1]} predictor columns"
        )
    group_of, labels = reindex_groups(groups)

    x_center = x_scale = None
    if standardize and X.shape[1]:
        # the design's own Fortran copy, standardized in place; the moments
        # are numpy's over each contiguous column of it, whatever X's
        # layout, and std takes a few columns at a time, so its temporary
        # stays small beside the copy
        X = np.array(X, order="F")
        x_center = X.mean(axis=0)
        sd = np.concatenate([block.std(axis=0) for block in np.array_split(
            X, max(1, X.size // 8192), axis=1)])
        x_scale = np.where(sd > 0, sd, 1.0)
        X -= x_center
        X /= x_scale

    return GroupedDesign(
        y, Z, X, group_of,
        group_labels=labels,
        predictor_names=predictor_names,
        covariate_names=covariate_names,
        x_center=x_center, x_scale=x_scale,
    )


class Posterior(NamedTuple):
    """The variational posterior of one fit, shaped as
    :class:`VariationalState`'s fields of the same names: what an EM run
    returns and what a warm start copies."""

    mu: np.ndarray
    s2: np.ndarray
    alpha_jk: np.ndarray
    pi_k: np.ndarray


class VariationalState:
    """A :class:`Posterior`'s fields plus the fit caches the sweep
    maintains; one EM run's working object.

    Fields
    ------
    mu, s2 : conditional posterior means and variances of the slab, shaped
        like the container's ``group_of``: (p,) on a grouped design, (K, L)
        on multi-task data.
    alpha_jk : variable-level posterior inclusion probabilities, same shape.
    pi_k : (K,) group-level posterior inclusion probabilities.
    residual : each block's maintained y - Z w - X pw, pw = pi_k alpha mu:
        an (n,) array on a grouped design, a list of L arrays on multi-task
        data.
    group_fit : (M, n) C-order array whose row ``fit_row[k]`` is the group
        fit g_k = sum_{j in k} alpha_jk mu_jk x_jk (*without* its pi_k
        weight) of each of the M groups in ``fit_groups``; (0, n) when no
        group keeps a fit.
    """

    def __init__(self, data, posterior: Posterior):
        """A copy of ``posterior`` (alpha_jk and pi_k clamped as
        :func:`clamp_prob` clamps) with caches sized for ``data`` and not
        yet filled: the residual is y and the group fits are 0;
        :meth:`initial` fills them."""
        self.mu = np.array(posterior.mu, float)
        self.s2 = np.array(posterior.s2, float)
        self.alpha_jk = clamp_prob(np.asarray(posterior.alpha_jk, float))
        self.pi_k = clamp_prob(np.asarray(posterior.pi_k, float))
        self.residual = copy.deepcopy(data.y)
        self.group_fit = np.zeros((data.fit_groups.size,
                                   data.per_block(data.y)[0].size))

    @classmethod
    def initial(cls, data, params, start: Posterior | None = None):
        """A run's first state for ``params``: a copy of the posterior
        ``start`` whose caches one from-scratch :func:`refresh_residual`
        builds (``start`` is not changed), or when None the zero-mean
        start: mu = 0, alpha_jk = alpha, pi_k = pi, and each block's
        residual y - Z omega."""
        if start is not None:
            return refresh_residual(cls(data, start), data, params)
        shape = data.group_of.shape
        state = cls(data, Posterior(
            np.zeros(shape), slab_variances(data, params),
            np.full(shape, params.alpha), np.full(data.K, params.pi)))
        for r, Z, omega in zip(data.per_block(state.residual),
                               data.per_block(data.Z),
                               data.per_block(params.omega)):
            r -= Z @ omega
        return state


def slab_variances(data, params):
    """s_jk^2 = sigma_e^2 / (x'x + sigma_e^2 / sigma_beta^2), with the
    zero-norm-column limit s^2 = sigma_beta^2.  On multi-task data ``xtx``
    is (K, L) and column j takes task j's variances by broadcasting."""
    denom = data.xtx + params.sigma_e2 / params.sigma_beta2
    return np.where(data.xtx > 0.0, params.sigma_e2 / denom, params.sigma_beta2)


def group_fits(data, w, out=None):
    """The fit g_k = X_k w_k (without its pi_k weight) of every group that
    keeps one, as the rows of ``out`` (a new (M, n) C-order array when
    None), row ``fit_row[k]`` for group k; ``w`` is alpha mu, shaped like
    ``data.group_of``.  Only a grouped design, one block, has such groups.

    One call of the compiled ``group_fits`` (``_sweep.c``, outside the
    GIL) when :func:`bivas._sweep.kernel` could build or load it, and
    :func:`group_fits_python` otherwise.
    """
    lib = _sweep.kernel()
    if lib is None or not data.fit_groups.size:   # the loop does nothing then
        return group_fits_python(data, w, out)
    w = np.ascontiguousarray(w, dtype=np.float64)
    if w.shape != data.group_of.shape:
        raise ValueError(f"w has shape {w.shape}, expected {data.group_of.shape}")
    out = np.empty((data.fit_groups.size, data.n)) if out is None else out
    lib.group_fits(data.n, out.shape[0], data.X.ctypes.data, w.ctypes.data,
                   data.members.ctypes.data, data.group_ptr.ctypes.data,
                   data.fit_groups.ctypes.data,
                   _sweep.address(out, (data.fit_groups.size, data.n)))
    return out


def group_fits_python(data, w, out=None):
    """:func:`group_fits` as one gemv per group over its columns of X: the
    fallback and the tests' reference."""
    X = data.per_block(data.X)[0]
    if out is None:
        out = np.empty((data.fit_groups.size, X.shape[0]))
    for row, k in enumerate(data.fit_groups):
        idx = data.group_members[k]
        out[row] = X[:, idx] @ w[idx]
    return out


class GroupFits(NamedTuple):
    """One fit pass over a state (:func:`fit_pass`)."""

    group_fit: np.ndarray   # (M, n) C order, row fit_row[k] = g_k = X_k w_k
    fit: list               # per block, its fit X pw
    cross: list             # per block, the bound's within-group cross term


def fit_pass(state: VariationalState, data, group_fit=None, *,
             out=None) -> GroupFits:
    """Every block's fit X pw, pw = pi_k w and w = alpha mu, with the
    fits g_k = X_k w_k of the groups that keep one, and the within-group
    cross term they give.

    ``group_fit`` holds the g_k when they are already formed from the
    state's w, as the sweep leaves them in ``state.group_fit``.  When
    None, one :func:`group_fits` call forms them, into ``out`` when given
    (a pass whose fits the state's caches take next passes
    ``state.group_fit``), and the pass is evaluated from (mu, alpha_jk,
    pi_k) alone: the maintained ``state.group_fit`` and ``state.residual``
    are not read, so a bound built on it stays a pure function of the
    state.  The groups that keep no fit enter their blocks' fits through
    one gemv per block over their coefficients (skipped when every group
    keeps a fit); a group that keeps one enters through pi_k g_k.  The cross term is

        sum_k (pi_k - pi_k^2) sum_{j != j'} w_j w_j' x_j'x_j'
          = sum_k (pi_k - pi_k^2) (|g_k|^2 - sum_{j in k} w_j^2 x_j'x_j)

    over the groups that keep a fit; it is 0 for a group with at most one
    member per block.
    """
    w = state.alpha_jk * state.mu
    fits = group_fits(data, w, out) if group_fit is None else group_fit
    kept = fits.shape[0]        # the groups that keep a fit
    lone = state.pi_k[data.group_of] * w
    if kept:
        lone[data.fit_row[data.group_of] >= 0] = 0.0   # they enter as pi_k g_k
    fit = [X @ v if kept < data.K else np.zeros(X.shape[0])
           for X, v in zip(data.per_block(data.X), data.per_block(lone.T))]
    cross = [0.0] * len(fit)
    if kept:
        pi = state.pi_k[data.fit_groups]
        fit[0] += pi @ fits
        pairs = np.einsum("ij,ij->i", fits, fits) - np.bincount(
            data.group_of.ravel(), weights=(w ** 2 * data.xtx).ravel(),
            minlength=data.K)[data.fit_groups]
        cross[0] = float(((pi - pi ** 2) * pairs).sum())
    return GroupFits(fits, fit, cross)


def refresh_residual(state: VariationalState, data, params, *,
                     fits: GroupFits | None = None) -> VariationalState:
    """Recompute ``group_fit`` and every block's ``residual`` =
    y - Z omega - X pw from scratch, in place, from ``fits`` (the
    iteration's :func:`fit_pass`; run here when None, forming the group
    fits straight into ``state.group_fit``).

    Idempotent; used to wash out floating-point drift accumulated by the
    incremental updates inside the coordinate sweeps.
    """
    fits = fit_pass(state, data, out=state.group_fit) if fits is None else fits
    if fits.group_fit is not state.group_fit:
        state.group_fit[:] = fits.group_fit
    for r, y, Z, omega, fit in zip(
            data.per_block(state.residual), data.per_block(data.y),
            data.per_block(data.Z), data.per_block(params.omega), fits.fit):
        r[:] = y - Z @ omega - fit
    return state


# ---------------------------------------------------------------------------
# multi-task containers
# ---------------------------------------------------------------------------

class MultiTaskData:
    """L regression tasks sharing the same K predictors.

    ``tasks`` is a list of (y_j, Z_j, X_j) triples; column k of every X_j
    is the same conceptual feature, so every X_j must have K columns.

    Cached on construction: ``xtx``, the (K, L) squared column norms
    (column j for task j, the layout of the (K, L) state arrays), per task
    j the :func:`_cho_factor` of Z_j'Z_j, and the layout.  Feature k is group
    k, with one member per task: coefficient (k, j) lies in block j
    (``block_of``) and is column k (``column_of``) of X_j.  ``group_of``,
    ``block_of`` and ``column_of`` are (K, L) int64 like the state arrays,
    and ``members``/``group_ptr`` list each group's members in task order
    by flat index, as on a grouped design.  No group keeps a fit.  The EM
    engine (:mod:`bivas.group_fit`) takes the tasks in turn, and fits
    ``_params``, :class:`MultiTaskParams`.  Each task is checked as a
    grouped design's one task is, its messages starting "task t: ".
    """

    _params = MultiTaskParams

    def __init__(self, tasks, *, predictor_names=None, covariate_names=None):
        if not tasks:
            raise DimensionMismatch("need at least one task")
        self.y, self.Z, self.X, self._z_cho = (list(a) for a in zip(*(
            _task(*task, f"task {t}: ") for t, task in enumerate(tasks))))
        self.n = [y.shape[0] for y in self.y]
        self.r = [Z.shape[1] for Z in self.Z]
        self.L, self.K = len(tasks), self.X[0].shape[1]
        for t, X in enumerate(self.X):
            if X.shape[1] != self.K:
                raise DimensionMismatch(
                    f"task {t} has {X.shape[1]} predictors, expected {self.K}")
        self.xtx = np.stack([np.einsum("ij,ij->j", X, X) for X in self.X],
                            axis=1)
        self.group_of, self.block_of = np.indices((self.K, self.L), np.int64)
        self.column_of = self.group_of
        self.members = np.arange(self.K * self.L, dtype=np.int64)
        self.group_ptr = np.arange(0, self.K * self.L + 1, self.L,
                                   dtype=np.int64)
        self.fit_groups = np.empty(0, np.int64)
        self.fit_row = np.full(self.K, -1, np.int64)
        self.predictor_names = list(predictor_names) if predictor_names is not None \
            else [f"x{k}" for k in range(self.K)]
        self.covariate_names = list(covariate_names) if covariate_names is not None \
            else [[f"z{j}" for j in range(r)] for r in self.r]

    @staticmethod
    def per_block(value):
        """A per-task list (y, Z, X, omega, the residual), or an array whose
        rows are per task, as a list over the blocks."""
        return list(value)
