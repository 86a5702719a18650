"""Closed-form portfolios for mean-variance investors with a mimicking penalty.

Submodules:

* :mod:`mimicfund.model`     validated domain types
* :mod:`mimicfund.markowitz` classical (penalty-free) solutions
* :mod:`mimicfund.mimicking` the penalized closed-form solver
* :mod:`mimicfund.oracle`    independent KKT verification path
* :mod:`mimicfund.moments`   CSV ingestion and moment estimation
* :mod:`mimicfund.study`     utility-gain parameter sweeps
* :mod:`mimicfund.cli`       command-line interface
"""

__version__ = "0.1.0"

from . import errors
from .model import InvestorGroup, MarketModel, PortfolioMatrix

__all__ = [
    "__version__",
    "errors",
    "InvestorGroup",
    "MarketModel",
    "PortfolioMatrix",
]
