import os
from pathlib import Path

import numpy as np
import pytest
import support

from mimicfund import InvestorGroup, MarketModel, markowitz

# Child interpreters (the CLI tests and import probes) must import the same
# checkout as the tests themselves, also when pytest alone put src/ on the path.
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    part for part in (SRC, os.environ.get("PYTHONPATH")) if part
)


@pytest.fixture
def textbook_market():
    return MarketModel(**support.TEXTBOOK_MARKET)


@pytest.fixture
def textbook_ctx(textbook_market):
    return markowitz.context(textbook_market)


@pytest.fixture
def base_group():
    return InvestorGroup(**support.TEXTBOOK_GROUP)


@pytest.fixture
def returns_csv(tmp_path):
    """A small well-formed return-history CSV; 2 assets, 60 observations."""
    rng = np.random.default_rng(7)
    rows = rng.multivariate_normal(
        mean=[0.005, 0.01], cov=[[0.001, 0.0002], [0.0002, 0.002]], size=60
    )
    path = tmp_path / "returns.csv"
    lines = ["A,B"] + [f"{a:.10f},{b:.10f}" for a, b in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
