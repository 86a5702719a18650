"""Two-asset, two-investor sweeps of the gains from pooling into the fund.

For a grid of risk-aversion ratios ``a = alpha_2 / alpha_1`` and mimicking
strengths ``phi`` this module tabulates

* ``delta_omega`` - the change in the fund's first-asset weight caused by
  accounting for mimicking, and
* ``delta_eu``    - the relative penalized-utility gain of the optimal fund
  solution over evaluating the penalized objective at the individual
  penalty-free optima.

Two tables are produced: one sweeping ``a`` for fixed ``phi`` values, one
sweeping ``phi`` for fixed ``a`` values.  The whole path is deterministic.

Both quantities are evaluated in frontier coordinates.  Every investor holds
``gmvp + c_i tilt``: the optimum has ``c* = a_phi^-1 beta`` and the
penalty-free optima have ``c_cl = 1 / alpha``.  With ``W = gmvp 1' + tilt c'``
and ``1' a_phi 1 = beta' alpha`` the penalized utility is

    mu_gmv + slope beta'c - (v_gmv beta'alpha + slope c' a_phi c) / 2,
    c' a_phi c = sum_i d_i c_i^2 + (u'c)(beta'c),

a concave quadratic in ``c`` that peaks at ``c*``, where ``c*' a_phi c* =
beta'c*`` makes it the optimal utility of :func:`mimicking.solve`.  So the
utility gain is the quadratic form ``slope (c_cl - c*)' a_phi (c_cl - c*) / 2``,
computed directly rather than as a difference of two nearly equal
utilities, and the weight shift is the first entry of the fund at
``tau = beta'c*`` minus that at ``tau_cl = beta'c_cl``, both scalars from
the functions :func:`mimicking.solve` and :func:`markowitz.fund_aggregate`
use.  The whole grid is one stack of groups, evaluated by array operations
along the investor axis: a run costs O(points n) and forms no weight
matrix and no ``n x n`` matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import errors, markowitz, mimicking, model
from .markowitz import MarkowitzContext
from .model import MarketModel, build_market

# Textbook two-asset market: annualized means 7% and 14%, volatilities 12%
# and 20%, correlation 0.2.
DEFAULT_MARKET = build_market(
    mu=(0.07, 0.14),
    sigma=((0.0144, 0.0048), (0.0048, 0.04)),
)

# The study fixes two investors with equal wealth.
STUDY_BETA = (0.5, 0.5)

# Numerator clamp for delta_eu, relative to max(1, |eu*|): c* and c_cl
# coincide up to rounding when phi = 0 or preferences are equal, so tiny
# gains of either sign are noise.
_GAIN_CLAMP = 1e-13


def _require_reals(name: str, values) -> None:
    for value in values:
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float, np.integer, np.floating))
            or not np.isfinite(value)
        ):
            raise errors.ConstraintViolated(f"{name} must hold finite numbers, got {value!r}")


@dataclass(frozen=True)
class StudyConfig:
    """Grid specification; defaults reproduce the standard configuration.

    ``phi_set`` members label the series of the a-sweep, ``a_set`` members
    the series of the phi-sweep.  ``phi_ratio`` scales the second investor's
    mimicking coefficient relative to the first (1.0 keeps them equal, the
    default and the only configuration in the default output).
    """

    market: MarketModel = DEFAULT_MARKET
    alpha1: float = 2.0
    phi_set: tuple[float, ...] = (3.0, 5.0, 10.0)
    a_set: tuple[float, ...] = (2.0, 5.0, 10.0)
    a_range: tuple[float, float] = (1.0, 10.0)
    phi_range: tuple[float, float] = (0.0, 5.0)
    grid_points: int = 101
    phi_ratio: float = 1.0

    def __post_init__(self):
        grid_points = self.grid_points
        if isinstance(grid_points, bool) or not isinstance(grid_points, (int, np.integer)):
            raise errors.ConstraintViolated(
                f"grid_points must be an integer, got {self.grid_points!r}"
            )
        for name in ("alpha1", "phi_ratio"):
            _require_reals(name, (getattr(self, name),))
        for name in ("phi_set", "a_set", "a_range", "phi_range"):
            _require_reals(name, getattr(self, name))
        for name in ("a_range", "phi_range"):
            if len(getattr(self, name)) != 2:
                raise errors.ConstraintViolated(f"{name} must be a pair lo, hi")
        if self.alpha1 <= 0:
            raise errors.NonPositiveAlpha(f"alpha1 must be > 0, got {self.alpha1!r}")
        if self.grid_points < 2:
            raise errors.ConstraintViolated(
                f"grid_points must be >= 2, got {self.grid_points!r}"
            )
        for name, (lo, hi) in (("a_range", self.a_range), ("phi_range", self.phi_range)):
            if not lo < hi:
                raise errors.ConstraintViolated(f"{name} must be a nonempty interval, got {lo!r}..{hi!r}")
        if self.a_range[0] < 1.0 or any(a < 1.0 for a in self.a_set):
            raise errors.ConstraintViolated("risk-aversion ratios must satisfy a >= 1")
        if self.phi_range[0] < 0.0 or any(p < 0.0 for p in self.phi_set):
            raise errors.ConstraintViolated("mimicking strengths must satisfy phi >= 0")
        if not self.phi_set or not self.a_set:
            raise errors.ConstraintViolated("phi_set and a_set must be nonempty")
        if self.phi_ratio < 0:
            raise errors.ConstraintViolated(f"phi_ratio must be >= 0, got {self.phi_ratio!r}")


class SweepRecord(NamedTuple):
    """One point of a sweep: its series label, grid coordinate and results."""

    series: str
    coordinate: float
    delta_omega: float
    delta_eu: float


@dataclass(frozen=True)
class SweepTable:
    """Ordered sweep records, serializable as CSV (15 significant digits)."""

    records: tuple[SweepRecord, ...]

    CSV_HEADER = "series,coordinate,delta_omega,delta_eu"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.records:
            lines.append(
                f"{r.series},{r.coordinate:.15g},{r.delta_omega:.15g},{r.delta_eu:.15g}"
            )
        return "\n".join(lines) + "\n"


def _frontier_gains(
    ctx: MarkowitzContext, alpha: np.ndarray, beta: np.ndarray, phi: np.ndarray
) -> tuple:
    """``delta_omega`` and ``delta_eu`` of one group or a stack ``(..., n)``.

    Returns ``(delta_omega, delta_eu, faults)``; the values have shape
    ``(..., 1)``, like every per-group value of
    :class:`mimicking.MimickingMatrix`.  The faults, laid out as in
    :func:`model._group_faults`, are the checks of the optimum (the
    positive-definiteness guard, a finite ``delta_omega``) and of the
    utilities (a positive optimum, no gain below rounding noise, a finite
    ``delta_eu``); the values are meaningless where a check fails.  The
    inputs are assumed to be valid groups.
    """
    dot = model._dot
    with np.errstate(all="ignore"):
        w, c, tau = mimicking._optimum(alpha, beta, phi)
        tau_cl = markowitz._classical_tau(alpha, beta)
        eu_star = markowitz._optimal_utility(ctx, tau, dot(beta, alpha))
        e = 1.0 / alpha - c
        gain = 0.5 * ctx.slope * (dot(w.d, e * e) + dot(w.u, e) * dot(beta, e))
        noise = _GAIN_CLAMP * np.maximum(1.0, abs(eu_star))
        d_eu = np.where(abs(gain) <= noise, 0.0, gain) / eu_star
        g0, t0 = ctx.gmvp[0], ctx.tilt[0]
        d_omega = (g0 + tau * t0) - (g0 + tau_cl * t0)
        faults = [
            (~w.certified, errors.NumericalBreakdown, mimicking.NOT_CERTIFIED, None),
            (~np.isfinite(d_omega), errors.NumericalBreakdown,
             "delta_omega is {!r}; the fund weights are not finite", d_omega),
            (eu_star <= 0, errors.NonPositiveOptimum,
             "penalized utility at the optimum is {!r}; relative gains are undefined", eu_star),
            (gain < -noise, errors.NumericalBreakdown,
             "utility gain {!r} is negative; optimality is violated", gain),
            (~np.isfinite(d_eu), errors.NumericalBreakdown,
             "delta_eu is {!r}; the utilities are not finite", d_eu),
        ]
    return d_omega, d_eu, faults


def run_sweeps(config: StudyConfig) -> tuple[SweepTable, SweepTable]:
    """Run both default sweeps; output ordering is series then coordinate.

    All points of both tables form one stack of groups, checked and
    evaluated together; a failure names the first failing point in output
    order.
    """
    ctx = markowitz.context(config.market)
    g = config.grid_points
    a_grid = np.linspace(config.a_range[0], config.a_range[1], g)
    phi_grid = np.linspace(config.phi_range[0], config.phi_range[1], g)
    phi_set = np.asarray(config.phi_set, dtype=float)
    a_set = np.asarray(config.a_set, dtype=float)
    # figure 1 sweeps a along each phi series, figure 2 phi along each a series
    split = len(phi_set) * g
    phi1 = np.concatenate([np.repeat(phi_set, g), np.tile(phi_grid, len(a_set))])
    a = np.concatenate([np.tile(a_grid, len(phi_set)), np.repeat(a_set, g)])
    coords = np.concatenate([a[:split], phi1[split:]])
    labels = []
    for label in [f"phi={p:g}" for p in config.phi_set] + [f"a={x:g}" for x in config.a_set]:
        labels += [label] * g
    with np.errstate(over="ignore"):  # an overflow is reported as a non-finite entry
        alpha = np.stack([np.full_like(a, config.alpha1), a * config.alpha1], axis=-1)
        phi = np.stack([phi1, phi1 * config.phi_ratio], axis=-1)
    beta = np.broadcast_to(np.asarray(STUDY_BETA, dtype=float), alpha.shape)

    d_omega, d_eu, faults = _frontier_gains(ctx, alpha, beta, phi)
    model._raise_first_fault(
        model._group_faults(alpha, beta, phi) + faults,
        prefix=lambda i: f"series {labels[i[0]]}, coordinate {coords[i[0]]:g}: ",
    )
    records = tuple(
        map(SweepRecord, labels, coords.tolist(), d_omega.ravel().tolist(), d_eu.ravel().tolist())
    )
    return SweepTable(records=records[:split]), SweepTable(records=records[split:])
