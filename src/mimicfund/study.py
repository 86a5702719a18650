"""Two-asset, two-investor sweeps of the gains from pooling into the fund.

For a grid of risk-aversion ratios ``a = alpha_2 / alpha_1`` and mimicking
strengths ``phi`` this module tabulates

* ``delta_omega`` - the change in the fund's first-asset weight caused by
  accounting for mimicking, and
* ``delta_eu``    - the relative penalized-utility gain of the optimal fund
  solution over evaluating the penalized objective at the individual
  penalty-free optima.

The gain is in the beta-weighted sum of the investors' penalized objectives,
which the fund maximizes by construction; it is not a Pareto gain (on 2000
``sampling.random_instance(rng, 10, 50)`` groups, ``default_rng(3)``, 1694
hold an investor whose own objective falls, 6191 of 52 637 investors).

Two tables are produced: one sweeping ``a`` for fixed ``phi`` values, one
sweeping ``phi`` for fixed ``a`` values.  The whole path is deterministic.

Both quantities are evaluated in frontier coordinates.  Every investor holds
``gmvp + c_i tilt``: the optimum has ``c* = a_phi^-1 beta`` and the
penalty-free optima have ``c_cl = 1 / alpha``.  With ``W = gmvp 1' + tilt c'``
and ``1' a_phi 1 = beta' alpha`` the penalized utility is

    mu_gmv + slope beta'c - (v_gmv beta'alpha + slope c' a_phi c) / 2,
    c' a_phi c = sum_i alpha_i beta_i c_i^2 + sum_i phi_i beta_i (c_i - beta'c)^2,

a concave quadratic in ``c`` that peaks at ``c*``, where ``c*' a_phi c* =
beta'c*`` makes it the optimal utility of :func:`mimicking.solve`.  So the
utility gain is the quadratic form ``slope (c_cl - c*)' a_phi (c_cl - c*) / 2``,
a sum of positive terms computed directly rather than as a difference of
two nearly equal utilities, and the weight shift is the first entry of the
fund at ``tau = beta'c*`` minus that at ``tau_cl = beta'c_cl``, both
scalars from the functions :func:`mimicking.solve` and
:func:`markowitz.fund_aggregate` use.  The whole grid is one stack of
groups, evaluated by array operations along the investor axis: a run
costs O(points n) and forms no weight matrix and no ``n x n`` matrix.

The stack is investor-major: ``alpha`` and ``phi`` are the transposes of
C-ordered ``(n, points)`` arrays, written in place without temporaries,
and ``beta``, the same for every point, is the ``(n,)`` vector of shares.
A sum over investors then adds ``n`` whole rows, where a C-ordered
``(points, n)`` stack would run numpy's inner loop once per point; with
``n = 2`` both layouts add the same two terms, so the bits are those of
each group alone (see :func:`markowitz._sum`).  A study has at most
:data:`MAX_POINTS` points, and every one of them is a valid group;
:class:`StudyConfig` checks both from its fields, before anything is
allocated; :func:`_check_gains` makes every number in the tables finite.

The tables are columnar.  A :class:`SweepTable` holds one label per series
and its coordinate and result columns as read-only ``(series,
grid_points)`` arrays, slices of the columns the stack computed, so
:func:`run_sweeps` builds no Python object per point.
:meth:`SweepTable.to_csv` formats one series block at a time from its
``tolist()`` columns, and :attr:`SweepTable.records` builds the rows only
when read.  On a 2-vCPU VM the default 606-point grid takes 0.16 ms, and
0.93 ms with both CSVs formatted.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import errors, markowitz, mimicking, model
from .markowitz import MarkowitzContext
from .model import MarketModel

# Textbook two-asset market: annualized means 7% and 14%, volatilities 12%
# and 20%, correlation 0.2.
DEFAULT_MARKET = MarketModel(
    mu=(0.07, 0.14),
    sigma=((0.0144, 0.0048), (0.0048, 0.04)),
)

# The study fixes two investors with equal wealth.
STUDY_BETA = (0.5, 0.5)

# Cap on the points of one study, (len(phi_set) + len(a_set)) * grid_points.
# The CLI's peak RSS grows by about 190 bytes per point: a million points
# peaked at 227 MB and took 1.8 s, the default 606 at 34 MB.
MAX_POINTS = 1_000_000

# Numerator clamp for delta_eu, relative to max(1, |eu*|): c* and c_cl
# coincide up to rounding when phi = 0 or preferences are equal, so tiny
# gains are noise.  A gain is never negative (see _check_gains).
_GAIN_CLAMP = 1e-13


@dataclass(frozen=True)
class StudyConfig:
    """Grid specification; defaults reproduce the standard configuration.

    ``phi_set`` members label the series of the a-sweep, ``a_set`` members
    the series of the phi-sweep.  ``phi_ratio`` scales the second investor's
    mimicking coefficient relative to the first (1.0 keeps them equal, the
    default and the only configuration in the default output).

    ``market`` must be a :class:`MarketModel`, ``grid_points`` passes
    :func:`model._as_count`, and the other fields pass :func:`model._as_array`
    and must be finite.  The 1-D fields are stored as tuples of the values given.

    These checks make every grid point ``alpha = (alpha1, a alpha1)``,
    ``phi = (phi_1, phi_1 phi_ratio)`` a valid group.  Rounding is
    monotone, so ``alpha1`` times the largest ``a`` and ``phi_ratio`` times
    the largest ``phi`` bound the products; either beyond the float range
    raises :class:`errors.NonFiniteValue`.
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
        if not isinstance(self.market, MarketModel):
            raise errors.ConstraintViolated(
                f"market must be a MarketModel, got {model._shown(self.market)}"
            )
        grid_points = model._as_count(self.grid_points, "grid_points", 2)
        arrays = {}
        for name, ndim in (("alpha1", 0), ("phi_ratio", 0), ("phi_set", 1),
                           ("a_set", 1), ("a_range", 1), ("phi_range", 1)):
            value = getattr(self, name)
            arrays[name] = model._as_array(value, name, ndim)
            model._range(arrays[name], name)
            if ndim:
                object.__setattr__(self, name, tuple(value))
        alpha1, phi_ratio, phi_set, a_set, a_range, phi_range = arrays.values()
        for name, pair in (("a_range", a_range), ("phi_range", phi_range)):
            if pair.shape != (2,):
                raise errors.ConstraintViolated(f"{name} must be a pair lo, hi")
            lo, hi = pair.tolist()
            if not lo < hi:
                raise errors.ConstraintViolated(f"{name} must be a nonempty interval, got {lo!r}..{hi!r}")
        if alpha1 <= 0:
            raise errors.NonPositiveAlpha(f"alpha1 must be > 0, got {alpha1.item()!r}")
        if a_range[0] < 1.0 or (a_set < 1.0).any():
            raise errors.ConstraintViolated("risk-aversion ratios must satisfy a >= 1")
        if phi_range[0] < 0.0 or (phi_set < 0.0).any():
            raise errors.ConstraintViolated("mimicking strengths must satisfy phi >= 0")
        if not phi_set.size or not a_set.size:
            raise errors.ConstraintViolated("phi_set and a_set must be nonempty")
        if phi_ratio < 0:
            raise errors.ConstraintViolated(f"phi_ratio must be >= 0, got {phi_ratio.item()!r}")
        points = (phi_set.size + a_set.size) * grid_points
        if points > MAX_POINTS:
            raise errors.ConstraintViolated(
                f"the study has {model._shown(points)} points (series times grid_points); "
                f"at most {MAX_POINTS} are allowed"
            )
        # as Python floats an overflow is inf, without a numpy warning
        for name, scale, label, top in (
            ("alpha1", alpha1.item(), "a", max(a_range[1], a_set.max()).item()),
            ("phi_ratio", phi_ratio.item(), "phi", max(phi_range[1], phi_set.max()).item()),
        ):
            if not np.isfinite(scale * top):
                raise errors.NonFiniteValue(
                    f"{name} {scale!r} times the largest {label} {top!r} is beyond the float range"
                )


class SweepRecord(NamedTuple):
    """One point of a sweep: its series label, grid coordinate and results."""

    series: str
    coordinate: float
    delta_omega: float
    delta_eu: float


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Sweep results by series, serializable as CSV (15 significant digits).

    ``series`` holds one label per series; ``coordinate``, ``delta_omega``
    and ``delta_eu`` are ``(len(series), grid_points)`` float arrays, one
    row per series, which :func:`run_sweeps` makes read-only.
    ``len(table)`` is the number of points.  Tables compare by identity:
    array fields have no single truth value to compare by.
    """

    series: tuple[str, ...]
    coordinate: np.ndarray
    delta_omega: np.ndarray
    delta_eu: np.ndarray

    CSV_HEADER = "series,coordinate,delta_omega,delta_eu"

    def __len__(self) -> int:
        return self.coordinate.size

    @property
    def records(self) -> tuple[SweepRecord, ...]:
        """The points in output order, built anew on each read."""
        g = self.coordinate.shape[1]
        labels = itertools.chain.from_iterable(itertools.repeat(s, g) for s in self.series)
        columns = (x.ravel().tolist() for x in (self.coordinate, self.delta_omega, self.delta_eu))
        return tuple(itertools.starmap(SweepRecord, zip(labels, *columns)))

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for label, *columns in zip(self.series, self.coordinate, self.delta_omega, self.delta_eu):
            # one row template per series; "%.15g" formats as the f-string spec ".15g"
            row = label.replace("%", "%%") + ",%.15g,%.15g,%.15g"
            lines += map(row.__mod__, zip(*(x.tolist() for x in columns)))
        return "\n".join(lines) + "\n"


def _frontier_gains(
    ctx: MarkowitzContext, alpha: np.ndarray, beta: np.ndarray, phi: np.ndarray
) -> tuple:
    """``(delta_omega, delta_eu, eu_star)`` of one group or a stack ``(..., n)``.

    Each has shape ``(..., 1)``, like every per-group value of
    :func:`mimicking._optimum`, and ``eu_star`` is the utility at the
    optimum.  Nothing is checked here; :func:`_check_gains` checks the
    results.  The inputs are assumed to be valid groups.
    """
    dot = markowitz._dot
    with np.errstate(all="ignore"):
        c, tau = mimicking._optimum(alpha, beta, phi)
        tau_cl = markowitz._classical_tau(alpha, beta)
        eu_star = markowitz._optimal_utility(ctx, tau, dot(beta, alpha))
        e = 1.0 / alpha - c
        spread = e - dot(beta, e)
        gain = 0.5 * ctx.slope * (dot(alpha * beta, e * e) + dot(phi * beta, spread * spread))
        d_eu = np.where(gain <= _GAIN_CLAMP * np.maximum(1.0, abs(eu_star)), 0.0, gain) / eu_star
        g0, t0 = ctx.gmvp[0], ctx.tilt[0]
        d_omega = (g0 + tau * t0) - (g0 + tau_cl * t0)
    return d_omega, d_eu, eu_star


def _check_gains(d_omega, d_eu, eu_star, name) -> None:
    """Raise at the first point, in C order, whose results fail a check.

    The checks, in order: a finite ``delta_omega``, a positive ``eu_star``
    and a finite ``delta_eu``; ``name(point)``, given the flat index, starts
    the message.  A gain is never negative (``slope`` is a sum of squares,
    the quadratic form a sum of positive terms), so it needs no check.
    """
    with np.errstate(invalid="ignore"):  # a NaN comparison warns on some numpy versions
        failing = ~np.isfinite(d_omega) | (eu_star <= 0) | ~np.isfinite(d_eu)
    if not failing.any():
        return
    point = int(np.argmax(failing))
    d_omega, d_eu, eu_star = (x.ravel()[point].item() for x in (d_omega, d_eu, eu_star))
    where = name(point)
    if not np.isfinite(d_omega):
        raise errors.NumericalBreakdown(
            f"{where}delta_omega is {d_omega!r}; the fund weights are not finite"
        )
    if eu_star <= 0:
        raise errors.NonPositiveOptimum(
            f"{where}penalized utility at the optimum is {eu_star!r}; relative gains are undefined"
        )
    raise errors.NumericalBreakdown(f"{where}delta_eu is {d_eu!r}; the utilities are not finite")


def run_sweeps(config: StudyConfig) -> tuple[SweepTable, SweepTable]:
    """Run both default sweeps; output ordering is series then coordinate.

    All points of both tables form one stack of groups, evaluated together;
    :class:`StudyConfig` has made each a valid group.  Two series with one
    label raise :class:`errors.ConstraintViolated` before the stack is
    allocated.  A failed check of the results names the first failing point
    in output order.
    """
    series = tuple(f"phi={p:g}" for p in config.phi_set) + tuple(f"a={x:g}" for x in config.a_set)
    if len(set(series)) < len(series):
        repeated = next(label for label, count in collections.Counter(series).items() if count > 1)
        raise errors.ConstraintViolated(f"series label {repeated!r} repeats: two members of "
                                        "phi_set or of a_set agree to 6 significant digits")
    ctx = markowitz.context(config.market)
    g = config.grid_points
    n_phi, n_a = len(config.phi_set), len(config.a_set)
    split = n_phi * g
    # the investor-major stack (see the module docstring), filled row by row;
    # alpha's second row holds a until it is scaled by alpha1; beta, the same
    # for every point, broadcasts along the investor axis
    alpha, phi = np.empty((2, len(STUDY_BETA), split + n_a * g))
    a, phi1 = alpha[1], phi[0]
    # figure 1 sweeps a along each phi series, figure 2 phi along each a series
    a[:split].reshape(n_phi, g)[...] = np.linspace(*config.a_range, g)
    a[split:].reshape(n_a, g)[...] = np.asarray(config.a_set, dtype=float)[:, None]
    phi1[:split].reshape(n_phi, g)[...] = np.asarray(config.phi_set, dtype=float)[:, None]
    phi1[split:].reshape(n_a, g)[...] = np.linspace(*config.phi_range, g)
    coords = np.concatenate([a[:split], phi1[split:]])
    alpha[0] = config.alpha1
    a *= config.alpha1
    np.multiply(phi1, config.phi_ratio, out=phi[1])

    beta = np.asarray(STUDY_BETA, dtype=float)
    d_omega, d_eu, eu_star = _frontier_gains(ctx, alpha.T, beta, phi.T)
    _check_gains(d_omega, d_eu, eu_star, lambda i: f"series {series[i // g]}, coordinate {coords[i]:g}: ")
    columns = [x.reshape(-1, g) for x in (coords, d_omega, d_eu)]
    for x in columns:
        x.flags.writeable = False
    return (SweepTable(series[:n_phi], *(x[:n_phi] for x in columns)),
            SweepTable(series[n_phi:], *(x[n_phi:] for x in columns)))
