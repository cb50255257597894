"""Exponential decay fits of performance against domain similarity.

Model: y = a * exp(-b * x) + c with b >= 0. Fitting is deliberately
solver-free and deterministic: a dense log-spaced grid over the decay
rate b (plus b = 0), a closed-form least-squares solve for (a, c) at
each candidate, then a short Gauss-Newton polish of all three
parameters that never accepts a step increasing the squared error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .errors import ComputationError
from .lazy import np

GRID_B_MIN = 1e-3
GRID_B_MAX = 1e2
GRID_B_POINTS = 1000
POLISH_MAX_STEPS = 50
TIE_TOLERANCE = 1e-12
GRID_BLOCK_ELEMENTS = 1 << 16  # entries per grid block array (512 KiB of float64)

_REL_STOP = 1e-15  # relative SSE improvement below which polishing stops


@dataclass(frozen=True)
class FitLog:
    """Diagnostics from one fit."""

    grid_b: float
    grid_sse: float
    polish_steps: int
    step_rejected: bool
    diverged: bool


@dataclass(frozen=True)
class FitModel:
    """A fitted y = a * exp(-b * x) + c curve; its ``asdict`` is the ``model`` object of ``fit-*.json``."""

    a: float
    b: float
    c: float
    predictor: str
    sse: float
    mae: float
    n: int
    percent_scale: bool
    fit_log: FitLog


def _validate_points(
    points: Sequence[tuple[float, float]], percent_scale: bool
) -> tuple[np.ndarray, np.ndarray]:
    if len(points) < 3:
        raise ComputationError(f"underdetermined fit: need at least 3 points, got {len(points)}")
    # canonical ordering makes the whole fit independent of input order
    ordered = sorted((float(x), float(y)) for x, y in points)
    x = np.array([p[0] for p in ordered], dtype=np.float64)
    y = np.array([p[1] for p in ordered], dtype=np.float64)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ComputationError("non-finite coordinate in fit points")
    if np.any(x < 0.0):
        raise ComputationError("negative similarity value in fit points")
    if np.all(x == x[0]):
        raise ComputationError("no predictor variation: all similarity values are identical")
    if percent_scale and (np.any(y < 0.0) or np.any(y > 100.0)):
        raise ComputationError("score outside [0, 100] in fit points for a percent-scale metric")
    return x, y


def _residuals(a: float, b: float, c: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return y - (a * np.exp(-b * x) + c)


def _jacobian(a: float, b: float, c: float, x: np.ndarray) -> np.ndarray:
    """Jacobian of the residuals y - (a*exp(-b*x) + c) wrt (a, b, c)."""
    e = np.exp(-b * x)
    return np.column_stack((-e, a * x * e, -np.ones_like(x)))


def _sse(a: float, b: float, c: float, x: np.ndarray, y: np.ndarray) -> float:
    r = _residuals(a, b, c, x, y)
    return float(np.dot(r, r))


def _grid_candidates() -> np.ndarray:
    return np.concatenate(([0.0], np.logspace(np.log10(GRID_B_MIN), np.log10(GRID_B_MAX), GRID_B_POINTS)))


def _tie_scan(sse: list[float], slack: float) -> int | None:
    """Index of the ascending-b winner: a candidate replaces the incumbent
    only when its SSE is lower by more than TIE_TOLERANCE.

    Returns None when a comparison falls within ``slack * (s_i + s_best)``
    of its threshold, where a rounding error that size could flip it.
    """
    best, s_best = 0, sse[0]
    threshold = s_best - TIE_TOLERANCE
    for i in range(1, len(sse)):
        s = sse[i]
        gap = s - threshold  # IEEE subtraction keeps the sign: gap < 0 iff s < threshold
        if abs(gap) < slack * (s + s_best):
            return None
        if gap < 0.0:
            best, s_best, threshold = i, s, s - TIE_TOLERANCE
    return best


def _grid_search(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float, float]:
    """Best (a, b, c, sse) over the decay-rate grid.

    Candidates are evaluated as (candidates x points) array blocks of at
    most GRID_BLOCK_ELEMENTS entries, so memory stays O(n): a closed-form
    least-squares (a, c) per row, with a = 0 and c = mean(y) on rows
    where exp(-b*x) is constant (e.g. b = 0), then the row's SSE. The
    grid is then scanned in ascending b; a candidate replaces the
    incumbent only when it improves the SSE by more than 1e-12, so ties
    resolve toward the smaller decay rate.

    The block SSEs are batched row sums, which add the n squared
    residuals in another order than ``_sse``'s ``np.dot``. Each of the
    two sums lies within about n * 2**-53 * s of the exact s, so the
    scan's winner is the one ``_sse`` would pick whenever every sum is
    finite and every comparison clears 4 * n * 2**-53 * (s_i + s_best).
    Otherwise every row's SSE is recomputed with ``_sse`` and scanned
    again. The returned SSE is always ``_sse`` of the winner, so the
    result is bitwise equal to a per-candidate loop over ``_sse``.
    """
    bs = _grid_candidates()
    n = x.size
    mean_y = float(np.sum(y)) / n
    rows = max(1, GRID_BLOCK_ELEMENTS // n)
    a = np.empty_like(bs)
    c = np.empty_like(bs)
    sse = np.empty_like(bs)
    # rows whose residuals overflow are expected here (huge scores); the
    # exact path scans them as +inf, and fit() rejects a non-finite winner
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, bs.size, rows):
            block = slice(start, start + rows)
            e = np.exp(-bs[block, None] * x[None, :])
            mean_e = np.sum(e, axis=1) / n
            d = e - mean_e[:, None]
            var_e = np.sum(d**2, axis=1)
            cov_ey = np.sum(d * (y - mean_y), axis=1)
            flat = var_e <= 1e-12 * np.maximum(np.sum(e * e, axis=1), 1e-300)
            a[block] = np.where(flat, 0.0, cov_ey / np.where(flat, 1.0, var_e))
            c[block] = np.where(flat, mean_y, mean_y - a[block] * mean_e)
            r = y - (a[block, None] * e + c[block, None])
            # one batched sum per row, added in another order than _sse's np.dot
            sse[block] = np.einsum("ij,ij->i", r, r)
        # four times the two sums' rounding bound, so a comparison that clears it goes as with _sse
        best = _tie_scan(sse.tolist(), 4 * n * 2.0**-53) if np.all(np.isfinite(sse)) else None
        if best is None:
            best = _tie_scan([_sse(*abc, x, y) for abc in zip(a.tolist(), bs.tolist(), c.tolist())], 0.0)
        ga, gb, gc = float(a[best]), float(bs[best]), float(c[best])
        return ga, gb, gc, _sse(ga, gb, gc, x, y)


def _gauss_newton(
    a: float, b: float, c: float, x: np.ndarray, y: np.ndarray
) -> tuple[float, float, float, float, int, bool, bool]:
    """Polish (a, b, c), keeping b >= 0 and the SSE monotonically decreasing.

    Returns (a, b, c, sse, accepted_steps, step_rejected, diverged).
    A failed solve, a non-finite step or a non-finite SSE counts as
    divergence and stops the polish at the last accepted iterate,
    which is always finite and never worse than the start.
    """
    sse = _sse(a, b, c, x, y)
    steps = 0
    rejected = False
    for _ in range(POLISH_MAX_STEPS):
        jac = _jacobian(a, b, c, x)
        residual = _residuals(a, b, c, x, y)
        try:
            delta, *_ = np.linalg.lstsq(jac, -residual, rcond=None)
        except np.linalg.LinAlgError:
            return a, b, c, sse, steps, rejected, True
        na = a + float(delta[0])
        nb = max(0.0, b + float(delta[1]))
        nc = c + float(delta[2])
        if not all(math.isfinite(v) for v in (na, nb, nc)):
            return a, b, c, sse, steps, rejected, True
        new_sse = _sse(na, nb, nc, x, y)
        if not math.isfinite(new_sse):
            return a, b, c, sse, steps, rejected, True
        if new_sse > sse:
            rejected = True
            break
        improvement = sse - new_sse
        a, b, c, sse = na, nb, nc, new_sse
        steps += 1
        if improvement <= _REL_STOP * max(sse, 1.0):
            break
    return a, b, c, sse, steps, rejected, False


def fit(
    points: Sequence[tuple[float, float]],
    *,
    predictor_name: str = "x",
    percent_scale: bool = True,
) -> FitModel:
    """Fit y = a * exp(-b * x) + c to (similarity, score) points.

    Deterministic: same points (in any order) give the same model.
    Needs at least 3 points with at least 2 distinct x values.
    """
    x, y = _validate_points(points, percent_scale)
    ga, gb, gc, gsse = _grid_search(x, y)
    if not math.isfinite(gsse):
        raise ComputationError("squared error overflows on every grid candidate: scores too large to fit")
    a, b, c, sse, steps, rejected, diverged = _gauss_newton(ga, gb, gc, x, y)
    log = FitLog(grid_b=gb, grid_sse=gsse, polish_steps=steps, step_rejected=rejected, diverged=diverged)
    model = FitModel(
        a=a,
        b=b,
        c=c,
        predictor=predictor_name,
        sse=sse,
        mae=math.nan,
        n=int(x.size),
        percent_scale=percent_scale,
        fit_log=log,
    )
    return replace(model, mae=mean_absolute_error(model, list(zip(x.tolist(), y.tolist()))))


def predict(model: FitModel, x: float) -> float:
    """Predicted score at similarity x, clamped to [0, 100] on percent scales."""
    if not math.isfinite(x):
        raise ComputationError("similarity value must be finite")
    if x < 0.0:
        raise ComputationError(f"negative similarity value: {x}")
    if not all(math.isfinite(v) for v in (model.a, model.b, model.c)):
        raise ComputationError("model parameters are not finite")
    return _curve(model, x)


def _curve(model: FitModel, x: float) -> float:
    """The unchecked model formula a * exp(-b * x) + c, clamped to [0, 100] on percent scales."""
    value = model.a * math.exp(-model.b * x) + model.c
    if model.percent_scale:
        value = min(max(value, 0.0), 100.0)
    return value


def mean_absolute_error(model: FitModel, points: Sequence[tuple[float, float]]) -> float:
    """Mean |y - predict(x)| over the given points."""
    if not points:
        raise ComputationError("no points: mean absolute error is undefined")
    total = 0.0
    for x, y in points:
        total += abs(float(y) - predict(model, float(x)))
    return total / len(points)


def curve_points(model: FitModel, x_max: float, n: int = 101, x_min: float = 0.0) -> list[tuple[float, float]]:
    """Evenly spaced (x, predicted score) samples for plotting."""
    if n < 2:
        raise ComputationError("need at least 2 curve points")
    if not (math.isfinite(x_min) and math.isfinite(x_max)) or x_max <= x_min:
        raise ComputationError("bad curve range")
    xs = np.linspace(x_min, x_max, n).tolist()
    predict(model, xs[0])  # checks the model and the smallest x, once
    return [(x, _curve(model, x)) for x in xs]
