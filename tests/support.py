"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the raw optimality conditions
with plain numpy solves, sharing no code with the package's solvers.
"""

import numpy as np


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


def mimicking_foc_residuals(mu, sigma, alpha, beta, phi, w):
    """First-order-condition residuals of the penalized group problem at ``w``.

    The wealth-weighted objective has gradient ``G = mu beta' - sigma W a_phi``
    in ``W``, where ``a_phi`` has entries
    ``d_i [i == j] + (u_i beta_j + beta_i u_j) / 2`` with
    ``d = (alpha + phi) beta`` and ``u = (beta'phi - 2 phi) beta``.  At the
    constrained optimum every column of ``G`` is constant (it equals that
    investor's unit-sum multiplier) and every column of ``W`` sums to one.
    ``sigma W a_phi`` is applied through this structure without forming
    ``a_phi``, so the check costs O(n k^2) time and O(n k) memory.

    Returns ``(spread, sum_off)``: the largest spread of a column of ``G``
    relative to the magnitude of the terms it sums, and the largest
    deviation of a column sum from one.
    """
    d = (alpha + phi) * beta
    u = (float(beta @ phi) - 2.0 * phi) * beta
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
