"""Independent reference implementations used as test oracles, and the
textbook instance the tests share.

Every oracle is deliberately written from the raw optimality conditions
and the model's definitions with plain numpy, sharing no code with the
package's solvers.
"""

from fractions import Fraction

import numpy as np

# the two-asset textbook market and group, as the JSON lists a config holds
TEXTBOOK_MARKET = {"mu": [0.07, 0.14], "sigma": [[0.0144, 0.0048], [0.0048, 0.04]]}
TEXTBOOK_GROUP = {"alpha": [2.0, 4.0], "beta": [0.5, 0.5], "phi": [3.0, 3.0]}
TEXTBOOK_CONFIG = {**TEXTBOOK_MARKET, **TEXTBOOK_GROUP}


def qp_gmvp(sigma):
    """Minimum-variance unit-sum weights via a direct KKT solve."""
    k = sigma.shape[0]
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * sigma
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    return np.linalg.solve(kkt, rhs)[:k]


def qp_individual(mu, sigma, alpha):
    """Maximize w'mu - alpha/2 w'sigma w subject to w'1 = 1, via KKT."""
    k = sigma.shape[0]
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = alpha * sigma
    kkt[:k, k] = 1.0
    kkt[k, :k] = 1.0
    rhs = np.concatenate([mu, [1.0]])
    return np.linalg.solve(kkt, rhs)[:k]


def classical_stacked(mu, sigma, alpha, beta):
    """Maximize the wealth-weighted sum of plain mean-variance objectives.

    One stationarity block and one unit-sum constraint per investor; returns
    the k x n matrix of individual optima.
    """
    k = sigma.shape[0]
    n = len(alpha)
    size = n * (k + 1)
    kkt = np.zeros((size, size))
    rhs = np.zeros(size)
    for i in range(n):
        row = i * k
        con = n * k + i
        kkt[row : row + k, row : row + k] = beta[i] * alpha[i] * sigma
        kkt[row : row + k, con] = 1.0
        kkt[con, row : row + k] = 1.0
        rhs[row : row + k] = beta[i] * mu
        rhs[con] = 1.0
    solution = np.linalg.solve(kkt, rhs)
    return solution[: n * k].reshape(n, k).T


def penalized_direct(mu, sigma, alpha, beta, phi, w):
    """Wealth-weighted sum of the individual penalized objectives.

    Evaluates, term by term,
    sum_i beta_i [w_i'mu - alpha_i/2 w_i'sigma w_i
                  - phi_i/2 (w_i - W beta)' sigma (w_i - W beta)].
    """
    fund = w @ beta
    total = 0.0
    for i in range(len(alpha)):
        wi = w[:, i]
        diff = wi - fund
        total += beta[i] * (
            wi @ mu
            - 0.5 * alpha[i] * (wi @ sigma @ wi)
            - 0.5 * phi[i] * (diff @ sigma @ diff)
        )
    return total


def penalized_exact(mu, sigma, alpha, beta, phi, w):
    """:func:`penalized_direct` in exact rational arithmetic.

    Every float input is converted to a :class:`fractions.Fraction` without
    rounding, so the result is the exact utility at the given floats.
    """
    exact = np.vectorize(Fraction, otypes=[object])
    mu, sigma, alpha, beta, phi, w = map(exact, (mu, sigma, alpha, beta, phi, w))
    k, n = w.shape
    fund = [sum(w[a, j] * beta[j] for j in range(n)) for a in range(k)]

    def quad(x):
        return sum(x[a] * sigma[a, b] * x[b] for a in range(k) for b in range(k))

    total = Fraction(0)
    for i in range(n):
        wi = w[:, i]
        diff = [wi[a] - fund[a] for a in range(k)]
        mean = sum(wi[a] * mu[a] for a in range(k))
        total += beta[i] * (mean - alpha[i] * quad(wi) / 2 - phi[i] * quad(diff) / 2)
    return total


def _solve_exact(matrix, columns):
    """``matrix^-1 columns`` by Gauss-Jordan elimination on :class:`fractions.Fraction` rows.

    ``matrix`` is a list of rows and ``columns`` a list of right-hand sides;
    returns one list of exact solution entries per right-hand side.
    """
    k = len(matrix)
    rows = [
        [Fraction(x) for x in matrix[i]] + [Fraction(col[i]) for col in columns]
        for i in range(k)
    ]
    for col in range(k):
        pivot = next(r for r in range(col, k) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col][col]
        rows[col] = [x / head for x in rows[col]]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [[row[k + j] for row in rows] for j in range(len(columns))]


def frontier_exact(mu, sigma):
    """GMVP, frontier tilt and slope of a market in exact rational arithmetic.

    Solves ``sigma [x y] = [1 mu]`` exactly, so the results are exact at the
    given floats: ``gmvp = x / 1'x``, ``tilt = y - (1'y) gmvp`` and
    ``slope = mu'tilt``.
    """
    x, y = _solve_exact(sigma, [[1] * len(mu), mu])
    gmvp = [xi / sum(x) for xi in x]
    tilt = [yi - sum(y) * g for yi, g in zip(y, gmvp)]
    slope = sum(Fraction(m) * t for m, t in zip(mu, tilt))
    return gmvp, tilt, slope


def inverse_beta_exact(alpha, beta, phi):
    """``c = a_phi^-1 beta`` in exact rational arithmetic, from the entry formulas.

    ``a[i, j] = beta_i (alpha_i + phi_i) [i == j] + beta_i beta_j (beta'phi - 2 phi_i)``
    and ``a_phi = (a + a') / 2``, every float input taken exactly.
    """
    alpha, beta, phi = ([Fraction(x) for x in v] for v in (alpha, beta, phi))
    n = len(alpha)
    phi_bar = sum(b * p for b, p in zip(beta, phi))
    a_phi = [
        [
            beta[i] * (alpha[i] + phi[i]) * (i == j)
            + beta[i] * beta[j] * (phi_bar - phi[i] - phi[j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    return _solve_exact(a_phi, [beta])[0]


def optimum_exact(mu, sigma, alpha, beta, phi):
    """The optimal ``W``, rows of ``gmvp_j + c_i tilt_j``, in exact rational arithmetic."""
    gmvp, tilt, _ = frontier_exact(mu, sigma)
    c = inverse_beta_exact(alpha, beta, phi)
    return [[x + ci * t for ci in c] for x, t in zip(gmvp, tilt)]


def split_mimicking(alpha, beta, phi):
    """Dense ``a_phi = diag(alpha beta) + (I - beta 1') diag(phi beta) (I - 1 beta')``.

    The wealth-weighted risk aversions plus the penalty term: column ``i``
    of ``I - beta 1'`` is ``e_i - beta``, the deviation map of investor
    ``i`` from the fund.
    """
    n = len(alpha)
    deviation = np.eye(n) - np.outer(beta, np.ones(n))
    return np.diag(alpha * beta) + deviation @ np.diag(phi * beta) @ deviation.T


def mimicking_structure(alpha, beta, phi):
    """``d = (alpha + phi) beta`` and ``u = (beta'phi - 2 phi) beta``.

    The mimicking matrix is ``a = diag(d) + u beta'``, entrywise
    ``a[i, j] = beta_i (alpha_i + phi_i) [i == j] + beta_i beta_j (beta'phi - 2 phi_i)``.
    """
    d = (alpha + phi) * beta
    u = (float(beta @ phi) - 2.0 * phi) * beta
    return d, u


def equal_wealth_matrix(alpha, phi):
    """Mimicking matrix in the rescaled form available under uniform wealth.

    For ``beta_i = 1/n`` the matrix ``n (A0 + Phi) + (phi_bar I - 2 Phi) 11'``
    equals ``n^2`` times the general mimicking matrix, and
    ``1' a_phi_scaled^-1 1`` equals ``beta' a_phi^-1 beta``.
    """
    n = len(alpha)
    return n * np.diag(alpha + phi) + np.outer(np.mean(phi) - 2.0 * phi, np.ones(n))


def entrywise_by_loop(alpha, beta, phi):
    """Mimicking matrix filled in one entry at a time from its two formulas.

    Diagonal: ``beta_i^2 (alpha_i/beta_i + (1/beta_i - 2) phi_i + phi_bar)``.
    Off-diagonal: ``beta_i beta_j (phi_bar - 2 phi_i)``.
    """
    n = len(alpha)
    phi_bar = float(beta @ phi)
    a = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                a[i, i] = beta[i] ** 2 * (
                    alpha[i] / beta[i] + (1.0 / beta[i] - 2.0) * phi[i] + phi_bar
                )
            else:
                a[i, j] = beta[i] * beta[j] * (phi_bar - 2.0 * phi[i])
    return a


def kkt_by_kron(mu, sigma, a_phi, beta):
    """The stacked KKT matrix and right-hand side built with Kronecker products.

    Unknowns ``(vec(W'), lambda)``: the system is
    ``[[sigma (x) a_phi, 1_k (x) I_n], [1_k' (x) I_n, 0]]`` with right-hand
    side ``[mu (x) beta, 1_n]``.
    """
    k = len(mu)
    n = len(beta)
    kkt = np.zeros((k * n + n, k * n + n))
    kkt[: k * n, : k * n] = np.kron(sigma, a_phi)
    constraint = np.kron(np.ones((k, 1)), np.eye(n))
    kkt[: k * n, k * n :] = constraint
    kkt[k * n :, : k * n] = constraint.T
    return kkt, np.concatenate([np.kron(mu, beta), np.ones(n)])


def mv_utility(mu, sigma, w, alpha):
    """Mean-variance utility ``w'mu - (alpha/2) w'sigma w``."""
    return float(w @ mu - 0.5 * alpha * (w @ sigma @ w))


def lambda_closed_form(ctx, group):
    """Closed-form Lagrange multipliers of the stacked problem.

    ``lambda = v_gmv a_phi 1_n - mu_gmv beta``, with ``a_phi`` rebuilt from
    its definition.
    """
    a_phi = split_mimicking(group.alpha, group.beta, group.phi)
    return ctx.v_gmv * (a_phi @ np.ones(group.n)) - ctx.mu_gmv * group.beta


def mimicking_foc_residuals(mu, sigma, alpha, beta, phi, w):
    """First-order-condition residuals of the penalized group problem at ``w``.

    The wealth-weighted objective has gradient ``G = mu beta' - sigma W a_phi``
    in ``W``, where ``a_phi`` has entries
    ``d_i [i == j] + (u_i beta_j + beta_i u_j) / 2`` with ``d`` and ``u`` from
    :func:`mimicking_structure`.  At the constrained optimum every column of
    ``G`` is constant (it equals that investor's unit-sum multiplier) and
    every column of ``W`` sums to one.
    ``sigma W a_phi`` is applied through this structure without forming
    ``a_phi``, so the check costs O(n k^2) time and O(n k) memory.

    Returns ``(spread, sum_off)``: the largest spread of a column of ``G``
    relative to the magnitude of the terms it sums, and the largest
    deviation of a column sum from one.
    """
    d, u = mimicking_structure(alpha, beta, phi)
    sw = sigma @ w
    terms = (
        np.outer(mu, beta),
        -sw * d,
        -0.5 * np.outer(sw @ u, beta),
        -0.5 * np.outer(sw @ beta, u),
    )
    grad = sum(terms)
    scale = sum(np.max(np.abs(t), axis=0) for t in terms)
    spread = float(np.max((grad.max(axis=0) - grad.min(axis=0)) / scale))
    sum_off = float(np.max(np.abs(w.sum(axis=0) - 1.0)))
    return spread, sum_off


def rel_entry_err(a, b):
    """Max entrywise deviation relative to entry magnitude, floored at 1."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))))


def unit_sum_columns(rng, k, n):
    """Random k x n matrix whose columns sum to one, entries O(1)."""
    w = rng.standard_normal((k, n))
    w -= (w.sum(axis=0) - 1.0) / k
    return w


def group_draws(rng, n, alpha_low=0.1, uniform_wealth=False):
    """``alpha, beta, phi`` drawn in ``sampling.random_group``'s order: alpha, phi, shares.

    The defaults give that sampler's bits.  ``alpha_low`` widens the alpha
    range; ``uniform_wealth`` gives every investor ``1/n`` and draws no shares.
    """
    alpha = rng.uniform(alpha_low, 20.0, n)
    phi = rng.uniform(0.0, 20.0, n)
    beta = np.full(n, 1.0 / n) if uniform_wealth else rng.dirichlet(np.ones(n))
    return alpha, beta, phi
