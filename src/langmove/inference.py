"""Closed-form pseudo-likelihood estimation from observed tracks.

Under the Euler transition approximation, the normalized increments
``Y_i = (x_{i+1} - x_i) / sqrt(dt_i)`` follow a standard linear model

    Y = (T D) nu + E,    E ~ N(0, gamma2 * I),    nu = gamma2 * beta,

where ``D`` stacks the halved covariate partial derivatives at the starts
of the ``n`` increments (x-block then y-block) and ``T`` is the diagonal
matrix of ``sqrt(dt_i)``.  Ordinary least squares then gives ``nu`` and
the residual variance gives ``gamma2``; the habitat coefficients follow
from an inverse-chi-square moment correction that makes them exactly
unbiased, with a closed-form covariance.  No numerical optimization is
involved.

:func:`pseudo_log_likelihood`, for cross-checks and diagnostics, is
computed from the same blocks: with ``nu = gamma2 * beta``,

    -n log(2 pi gamma2) - sum_i log(dt_i) - ||Y - T D nu||^2 / (2 gamma2),

which is exactly the sum of the Euler transition log-densities.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import gammaincinv, ndtri

from .covariates import Covariate
from .errors import (
    DegenerateFitError,
    InsufficientDataError,
    NonFiniteError,
    OutOfDomainError,
    SingularDesignError,
)
from .langevin import Track
from .raster import Extent
from .rsf import RsfModel

__all__ = [
    "DesignMatrices",
    "FitResult",
    "build_design",
    "fit",
    "pooled_fit",
    "pseudo_log_likelihood",
]


#: Kept increments per group of :func:`build_design`: consecutive tracks share
#: one domain check and one gradient call per covariate up to this many rows,
#: and a longer track is a group of its own, so the working memory stays
#: that of one long track.
GROUP_ROWS = 4096


@dataclass(frozen=True, eq=False)
class DesignMatrices:
    """Regression blocks for the increments of one or more tracks.

    ``y`` is the ``2n``-vector of normalized increments (all x components,
    then all y components), ``d`` the ``(2n, J)`` matrix of halved covariate
    partials at the increment start points, and ``t_delta`` the ``2n``
    diagonal of the sqrt-interval weighting, repeated over both blocks.
    """

    y: np.ndarray
    d: np.ndarray
    t_delta: np.ndarray
    n: int
    J: int


def build_design(
    tracks: Sequence[Track],
    covariates: Sequence[Covariate],
    bad: Sequence[np.ndarray] | None = None,
) -> DesignMatrices:
    """Assemble the linear-model blocks of the usable increments of ``tracks``.

    ``bad[k][i]`` flags increment ``i`` of track ``k``, from location ``i``
    to ``i + 1``, as unusable (e.g. clamped, or starting outside a
    covariate's domain), and it is dropped.  Each transition density is
    conditioned on its own start, so dropping an increment is the same as
    cutting the track there.  Gradients are evaluated at the kept starts
    only, so any other location may lie outside gridded covariate domains.
    Consecutive tracks are pooled into groups of at most ``GROUP_ROWS``
    kept increments, or one longer track, with one domain check and one
    array call per covariate each; every row is computed on its own, so the
    grouping does not change a bit of the design.

    Raises
    ------
    ValueError
        With no covariate, a track of fewer than two locations, or a mask
        that does not hold one flag per increment of its track.
    OutOfDomainError
        If a kept start is outside a covariate's ``extent``; the message
        names the first one as ``track k: track location i``.
    NonFiniteError
        If a covariate's gradient is non-finite at a kept start, named as
        for ``OutOfDomainError``.
    InsufficientDataError
        If no increment is left.
    """
    covariates = list(covariates)
    if len(covariates) == 0:
        raise ValueError("need at least one covariate")
    if bad is not None and len(bad) != len(tracks):
        raise ValueError(f"need one mask per track ({len(tracks)}), got {len(bad)}")
    kept = []
    for k, track in enumerate(tracks):
        n_k = len(track) - 1
        if n_k < 1:
            raise ValueError(f"track {k} must contain at least two locations")
        flags = np.zeros(n_k, dtype=bool) if bad is None else np.asarray(bad[k], dtype=bool)
        if flags.shape != (n_k,):
            raise ValueError(f"track {k}: need one flag per increment ({n_k}), got {flags.shape}")
        kept.append(np.flatnonzero(~flags))
    n = sum(len(keep) for keep in kept)
    if n == 0:
        raise InsufficientDataError("no usable increments to fit")
    J = len(covariates)
    domain = functools.reduce(Extent.intersect, (c.extent for c in covariates))

    # each group fills its rows of the x block [0, n) and of the y block [n, 2n)
    y, d, t_delta = np.empty(2 * n), np.empty((2 * n, J)), np.empty(2 * n)
    lo = 0
    for group in _groups(kept):
        rows = sum(len(kept[k]) for k in group)
        x_rows = slice(lo, lo + rows)
        y_rows = slice(n + lo, n + lo + rows)
        lo += rows
        starts = _stack([tracks[k].xy[kept[k]] for k in group])
        outside = ~domain.contains_points(starts)
        if outside.any():
            k, loc = _track_location(kept, group, int(np.argmax(outside)))
            raise OutOfDomainError(*tracks[k].xy[loc], f"track {k}: track location {loc}")
        sqrt_d = np.sqrt(_stack([tracks[k].intervals[kept[k]] for k in group]))
        steps = _stack([np.diff(tracks[k].xy, axis=0)[kept[k]] for k in group])
        t_delta[x_rows] = t_delta[y_rows] = sqrt_d
        y[x_rows], y[y_rows] = (steps / sqrt_d[:, None]).T
        for j, cov in enumerate(covariates):
            d[x_rows, j], d[y_rows, j] = 0.5 * cov.gradient(starts).T
        finite = np.isfinite(d[x_rows]).all(axis=1) & np.isfinite(d[y_rows]).all(axis=1)
        if not finite.all():
            k, loc = _track_location(kept, group, int(np.argmin(finite)))
            raise NonFiniteError(f"non-finite covariate gradient at track {k}: track location {loc}")
    return DesignMatrices(y=y, d=d, t_delta=t_delta, n=n, J=J)


def _track_location(kept: Sequence[np.ndarray], group: range, i: int) -> tuple[int, int]:
    """The track ``k`` of row ``i`` of ``group``'s rows, and its location."""
    for k in group:
        if i < len(kept[k]):
            break
        i -= len(kept[k])
    return k, int(kept[k][i])


def _groups(kept: Sequence[np.ndarray]) -> list[range]:
    """Consecutive track indices in groups of at most ``GROUP_ROWS`` kept
    rows, or of one track with more."""
    groups: list[range] = []
    first = rows = 0
    for k, keep in enumerate(kept):
        if k > first and rows + len(keep) > GROUP_ROWS:
            groups.append(range(first, k))
            first, rows = k, 0
        rows += len(keep)
    groups.append(range(first, len(kept)))
    return groups


def _stack(parts: list[np.ndarray]) -> np.ndarray:
    """The parts end to end, without a copy of a lone part."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Point estimates, covariance, and confidence intervals of one fit.

    ``nu_hat`` is the raw linear-model coefficient vector (``gamma2 * beta``
    scale), ``beta_hat`` the bias-corrected habitat coefficients, and
    ``upsilon`` the inverse weighted Gram matrix the covariance formula is
    built from.
    """

    nu_hat: np.ndarray
    gamma2_hat: float
    beta_hat: np.ndarray
    upsilon: np.ndarray
    beta_cov: np.ndarray
    ci_beta: np.ndarray
    ci_gamma2: tuple[float, float]
    alpha: float
    n: int
    J: int
    condition_number: float
    residual_norm: float

    @property
    def se_beta(self) -> np.ndarray:
        """Standard errors of the habitat coefficients."""
        return np.sqrt(np.diag(self.beta_cov))

    def to_dict(self) -> dict:
        """Machine-readable document with stable field names."""
        return {
            "nu_hat": self.nu_hat.tolist(),
            "gamma2_hat": self.gamma2_hat,
            "beta_hat": self.beta_hat.tolist(),
            "beta_cov": self.beta_cov.tolist(),
            "ci_beta": self.ci_beta.tolist(),
            "ci_gamma2": list(self.ci_gamma2),
            "n": self.n,
            "J": self.J,
            "alpha": self.alpha,
            "condition_number": self.condition_number,
        }

    def format_table(self) -> str:
        """Flat key-value text table for human consumption."""
        lines = [
            f"n            {self.n}",
            f"J            {self.J}",
            f"alpha        {self.alpha:g}",
            f"gamma2_hat   {self.gamma2_hat:.6g}"
            f"   CI ({self.ci_gamma2[0]:.6g}, {self.ci_gamma2[1]:.6g})",
        ]
        for j in range(self.J):
            lines.append(
                f"beta_{j + 1}       {self.beta_hat[j]:.6g}"
                f"   CI ({self.ci_beta[j, 0]:.6g}, {self.ci_beta[j, 1]:.6g})"
            )
        lines.append(f"cond(DtT2D)  {self.condition_number:.3e}")
        return "\n".join(lines)


def fit(design: DesignMatrices, alpha: float = 0.05) -> FitResult:
    """Closed-form estimates from assembled design matrices.

    Solves the weighted least-squares problem by QR factorization of
    ``T D`` (mathematically identical to the normal equations, better
    conditioned); the rank test and the condition number of ``D'T^2 D``
    come from the singular values of the ``J x J`` factor ``R``, which are
    those of ``T D``.  It then applies the unbiasedness correction

        beta_hat = (2n - J - 2) * nu_hat / ((2n - J) * gamma2_hat)

    and the plug-in covariance

        cov[j, k] = 2 b_j b_k / (2n-J-4) + (U_jk / g2) * (1 + 2 / (2n-J-4))

    evaluated at the estimates.  The gamma2 interval uses chi-square
    quantiles with ``2n - J`` degrees of freedom.

    Parameters
    ----------
    design : DesignMatrices
    alpha : float
        Confidence level in (0, 0.5); intervals have coverage ``1 - alpha``.

    Raises
    ------
    SingularDesignError
        If ``T D`` is numerically rank deficient.
    InsufficientDataError
        If ``2n - J - 4 <= 0``: too few increments for the covariance.
    DegenerateFitError
        If the residual variance is (numerically) zero; carries ``nu_hat``.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must be in (0, 0.5), got {alpha}")
    n, J = design.n, design.J
    m = 2 * n - J
    if m <= 0:
        raise InsufficientDataError(f"2n - J = {m} <= 0: too few increments")

    x = design.d * design.t_delta[:, None]
    q, r = np.linalg.qr(x)
    svals = np.linalg.svd(r, compute_uv=False)
    if svals[-1] <= svals[0] * 1e-12:
        cond2 = math.inf if svals[-1] == 0 else float((svals[0] / svals[-1]) ** 2)
        raise SingularDesignError(cond2)
    cond2 = float((svals[0] / svals[-1]) ** 2)

    # sums over increments by einsum, not BLAS: BLAS rounds by its thread count
    nu_hat = solve_triangular(r, np.einsum("ij,i->j", q, design.y))
    r_inv = solve_triangular(r, np.eye(J))
    upsilon = r_inv @ r_inv.T

    resid = design.y - x @ nu_hat
    rss = float(np.einsum("i,i->", resid, resid))
    gamma2_hat = rss / m
    yty = float(np.einsum("i,i->", design.y, design.y))
    if gamma2_hat == 0.0 or rss <= 100.0 * np.finfo(float).eps ** 2 * yty:
        raise DegenerateFitError(nu_hat)

    beta_hat = (m - 2) * nu_hat / (m * gamma2_hat)

    if m - 4 <= 0:
        raise InsufficientDataError(
            f"2n - J - 4 = {m - 4} <= 0: too few increments for confidence intervals"
        )
    beta_cov = 2.0 * np.outer(beta_hat, beta_hat) / (m - 4) + (upsilon / gamma2_hat) * (
        1.0 + 2.0 / (m - 4)
    )
    # the normal and chi-square quantiles, as scipy.stats computes them
    # (norm.ppf is ndtri, chi2.ppf(p, m) is 2 * gammaincinv(m / 2, p))
    # without its per-call dispatch
    z = ndtri(alpha / 2.0)  # negative
    se = np.sqrt(np.diag(beta_cov))
    ci_beta = np.column_stack([beta_hat + z * se, beta_hat - z * se])
    ci_gamma2 = (
        float(gamma2_hat * m / (2.0 * gammaincinv(m / 2.0, 1.0 - alpha / 2.0))),
        float(gamma2_hat * m / (2.0 * gammaincinv(m / 2.0, alpha / 2.0))),
    )

    return FitResult(
        nu_hat=nu_hat,
        gamma2_hat=gamma2_hat,
        beta_hat=beta_hat,
        upsilon=upsilon,
        beta_cov=beta_cov,
        ci_beta=ci_beta,
        ci_gamma2=ci_gamma2,
        alpha=alpha,
        n=n,
        J=J,
        condition_number=cond2,
        residual_norm=math.sqrt(rss),
    )


def pooled_fit(
    tracks: Sequence[Track],
    covariates: Sequence[Covariate],
    alpha: float = 0.05,
) -> FitResult:
    """Fit one model to all the increments of several tracks."""
    return fit(build_design(tracks, covariates), alpha=alpha)


def pseudo_log_likelihood(track: Track, model: RsfModel) -> float:
    """Euler pseudo-log-likelihood of a track under a given model.

    Sums, over transitions, the log Gaussian density of ``x_{i+1}`` with
    mean ``x_i + (gamma2 * dt_i / 2) * grad_log_pi(x_i)`` and isotropic
    variance ``gamma2 * dt_i``; the first position is conditioned on.
    Computed in closed form from :func:`build_design` (module docstring).

    Raises
    ------
    OutOfDomainError
        If a non-final location is outside a covariate domain.
    """
    design = build_design([track], model.covariates)
    g2 = model.gamma2
    resid = design.y - design.t_delta * (design.d @ (g2 * model.beta))
    return float(
        -design.n * math.log(2.0 * math.pi * g2)
        - np.log(track.intervals).sum()
        - np.einsum("i,i->", resid, resid) / (2.0 * g2)
    )
