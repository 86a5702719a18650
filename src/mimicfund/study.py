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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors, markowitz, mimicking
from .markowitz import MarkowitzContext
from .model import InvestorGroup, MarketModel, build_group, build_market

# Textbook two-asset market: annualized means 7% and 14%, volatilities 12%
# and 20%, correlation 0.2.
DEFAULT_MARKET = build_market(
    mu=(0.07, 0.14),
    sigma=((0.0144, 0.0048), (0.0048, 0.04)),
)

# The study fixes two investors with equal wealth.
STUDY_BETA = (0.5, 0.5)

# Numerator clamp for delta_eu: the two evaluated matrices coincide up to
# rounding when phi = 0 or preferences are equal, so tiny negatives are noise.
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


@dataclass(frozen=True)
class SweepRecord:
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


def delta_omega(ctx: MarkowitzContext, group: InvestorGroup) -> float:
    """First-asset fund-weight change caused by accounting for mimicking."""
    return _delta_omega(ctx, group, mimicking.solve(ctx, group))


def delta_eu(market: MarketModel, group: InvestorGroup) -> float:
    """Relative penalized-utility gain of the optimal fund solution.

    The comparison point evaluates the penalized objective at the matrix of
    individual penalty-free optima (whose wealth-weighted aggregate is the
    classical fund portfolio).  Requires a positive optimal utility, else the
    relative measure is meaningless and :class:`errors.NonPositiveOptimum`
    is raised.
    """
    ctx = markowitz.context(market)
    return _delta_eu(ctx, group, mimicking.solve(ctx, group))


def _delta_omega(
    ctx: MarkowitzContext, group: InvestorGroup, solution: mimicking.MimickingSolution
) -> float:
    base_weights, _, _ = markowitz.fund_aggregate(ctx, group)
    return float(solution.fund_weights[0] - base_weights[0])


def _delta_eu(
    ctx: MarkowitzContext, group: InvestorGroup, solution: mimicking.MimickingSolution
) -> float:
    if solution.eu_star <= 0:
        raise errors.NonPositiveOptimum(
            f"penalized utility at the optimum is {solution.eu_star!r}; "
            "relative gains are undefined"
        )
    classical = np.column_stack(
        [markowitz.individual_weights(ctx, a)[0] for a in group.alpha]
    )
    baseline = mimicking.penalized_utility(ctx.market, group, classical)
    gain = solution.eu_star - baseline
    noise = _GAIN_CLAMP * max(1.0, abs(solution.eu_star))
    if gain < -noise:
        raise errors.NumericalBreakdown(
            f"optimal utility {solution.eu_star!r} fell below the baseline "
            f"{baseline!r}; optimality is violated"
        )
    if abs(gain) <= noise:
        # the two matrices coincide up to rounding (phi = 0, equal preferences)
        gain = 0.0
    return gain / solution.eu_star


def _sweep(ctx, alpha1, phi_ratio, series, coordinates, is_phi_sweep):
    records = []
    for label, fixed in series:
        for coord in coordinates:
            phi1, a = (coord, fixed) if is_phi_sweep else (fixed, coord)
            group = build_group(
                alpha=(alpha1, a * alpha1),
                beta=STUDY_BETA,
                phi=(phi1, phi1 * phi_ratio),
            )
            try:
                solution = mimicking.solve(ctx, group)
                d_omega = _delta_omega(ctx, group, solution)
                d_eu = _delta_eu(ctx, group, solution)
            except errors.MimicfundError as exc:
                raise type(exc)(f"series {label}, coordinate {coord:g}: {exc}") from exc
            records.append(
                SweepRecord(series=label, coordinate=float(coord), delta_omega=d_omega, delta_eu=d_eu)
            )
    return SweepTable(records=tuple(records))


def run_sweeps(config: StudyConfig) -> tuple[SweepTable, SweepTable]:
    """Run both default sweeps; output ordering is series then coordinate."""
    ctx = markowitz.context(config.market)
    a_grid = np.linspace(config.a_range[0], config.a_range[1], config.grid_points)
    phi_grid = np.linspace(config.phi_range[0], config.phi_range[1], config.grid_points)
    figure1 = _sweep(
        ctx,
        config.alpha1,
        config.phi_ratio,
        [(f"phi={p:g}", p) for p in config.phi_set],
        a_grid,
        is_phi_sweep=False,
    )
    figure2 = _sweep(
        ctx,
        config.alpha1,
        config.phi_ratio,
        [(f"a={a:g}", a) for a in config.a_set],
        phi_grid,
        is_phi_sweep=True,
    )
    return figure1, figure2
