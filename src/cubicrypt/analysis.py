"""Divergence analysis: lower-bound error and Lyapunov exponent estimate.

Two pseudo-orbits of the same system computed under different evaluation
schemes bound the true rounding error from below: delta[n] =
|a.samples[n] - b.samples[n]|. While the difference is still far from
saturating, ln(delta) grows linearly with n; the slope of that line is an
estimate of the largest Lyapunov exponent (nats per iteration).
"""

from dataclasses import dataclass, field

import numpy as np

from cubicrypt.maps import PseudoOrbit

# Once delta reaches this level the log-curve flattens out and would bias
# the regression, so the default fit window stops just before it.
SATURATION_LEVEL = 0.1


@dataclass(frozen=True)
class LbeSeries:
    """Per-iteration absolute difference between two pseudo-orbits."""

    delta: np.ndarray = field(repr=False)

    def __post_init__(self):
        delta = np.asarray(self.delta, dtype=np.float64)
        delta.flags.writeable = False
        object.__setattr__(self, "delta", delta)

    def __len__(self) -> int:
        return len(self.delta)

    def first_reaching(self, level: float) -> int | None:
        """Index of the first entry >= level, or None if never reached."""
        hits = np.nonzero(self.delta >= level)[0]
        return int(hits[0]) if len(hits) else None


@dataclass(frozen=True)
class LyapunovEstimate:
    """Slope of ln(delta) vs iteration over a fit window.

    ``exponent`` is in nats per iteration. ``fit_range`` is the inclusive
    (start, end) index pair of the entries actually regressed; zero
    entries inside the window are skipped because their log is undefined.
    """

    exponent: float
    intercept: float
    fit_range: tuple[int, int]
    r_squared: float
    n_points: int


def _samples_of(orbit) -> np.ndarray:
    if isinstance(orbit, PseudoOrbit):
        return orbit.samples
    return np.asarray(orbit, dtype=np.float64)


def lower_bound_error(a, b) -> LbeSeries:
    """Element-wise |a - b| of two equal-length orbits.

    Accepts PseudoOrbit instances or plain sample arrays. Symmetric in its
    arguments; identically zero when the orbits agree.
    """
    sa, sb = _samples_of(a), _samples_of(b)
    if len(sa) != len(sb):
        raise ValueError(f"orbit lengths differ: {len(sa)} vs {len(sb)}")
    return LbeSeries(delta=np.abs(sa - sb))


def linear_regression(points) -> tuple[float, float, float]:
    """Ordinary least squares fit of y on x.

    ``points`` is an N x 2 array or a sequence of (x, y) pairs. Returns
    (slope, intercept, r_squared); r_squared is 1.0 for an exact fit,
    including the degenerate all-y-equal case where the residuals vanish.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("need at least 2 (x, y) points")
    x, y = pts[:, 0], pts[:, 1]
    xm, ym = x.mean(), y.mean()
    dx = x - xm
    sxx = float(np.dot(dx, dx))
    if sxx == 0.0:
        raise ValueError("all x values are equal; slope is undefined")
    slope = float(np.dot(dx, y - ym)) / sxx
    intercept = ym - slope * xm
    residuals = y - (slope * x + intercept)
    ss_res = float(np.dot(residuals, residuals))
    ss_tot = float(np.dot(y - ym, y - ym))
    if ss_tot == 0.0:
        r_squared = 1.0
    else:
        r_squared = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return slope, float(intercept), r_squared


def lyapunov_from_lbe(
    series: LbeSeries,
    fit_range: tuple[int, int] | None = None,
) -> LyapunovEstimate:
    """Estimate the largest Lyapunov exponent from an LBE series.

    The default window runs from the first nonzero delta up to (but not
    including) the first delta >= ``SATURATION_LEVEL``; pass
    ``fit_range`` as a half-open (start, end) index pair to override it.
    Zero deltas inside the window are skipped; if they are more than half
    of the window the fit is refused.
    """
    delta = series.delta
    if fit_range is None:
        nonzero = np.nonzero(delta > 0.0)[0]
        if len(nonzero) == 0:
            raise ValueError("no divergence to fit: the series is identically zero")
        start = int(nonzero[0])
        saturated = np.nonzero(delta[start:] >= SATURATION_LEVEL)[0]
        end = start + int(saturated[0]) if len(saturated) else len(delta)
    else:
        start, end = fit_range
        if not 0 <= start < end <= len(delta):
            raise ValueError(f"fit range {fit_range!r} out of bounds for length {len(delta)}")

    window = np.arange(start, end)
    usable = window[delta[window] > 0.0]
    if len(usable) < 2:
        raise ValueError("need at least 2 positive deltas in the fit window")
    if len(usable) * 2 < len(window):
        raise ValueError(
            f"refusing to fit: {len(window) - len(usable)} of {len(window)} "
            "window entries are zero"
        )
    slope, intercept, r_squared = linear_regression(
        np.column_stack((usable.astype(np.float64), np.log(delta[usable])))
    )
    return LyapunovEstimate(
        exponent=slope,
        intercept=intercept,
        fit_range=(int(usable[0]), int(usable[-1])),
        r_squared=r_squared,
        n_points=len(usable),
    )
