"""Mutation census of the documented constants: which scalings does tier-1 miss?

Each mutant is a copy of ``src``, ``tests``, ``pyproject.toml`` and
``README.md`` (which a test reads) in a temporary directory whose module
rebinds one constant, scaled by one factor, at its end; the tier-1 suite
then runs on the copy with ``-x``.  A mutant that passes every test
survives: the tests would not see that documented number change.  A
control, which rebinds a constant to itself, runs first and must pass.
Run from anywhere, with the Python that runs the tests:

    python tests/mutants.py [NAME ...]

Names restrict the census to those constants.  It prints one line per
mutant, with the test that killed it, and then the survivors, and exits 1
if any survived.  Not collected by pytest (the file name does not start
with ``test_``).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module, constant, factors); README states each value
CONSTANTS = (
    ("model", "SYMMETRY_RTOL", (2.0, 0.5)),
    ("model", "BETA_SUM_TOL", (2.0, 0.5)),
    ("model", "COLUMN_SUM_TOL", (2.0, 0.5)),
    ("cli", "VERIFY_TOL", (2.0, 0.5)),
    ("oracle", "RESIDUAL_TOL", (2.0, 0.5)),
    ("oracle", "MAX_UNKNOWNS", (2.0, 0.5)),
    ("study", "MAX_POINTS", (2.0, 0.5)),
    ("study", "_GAIN_CLAMP", (2.0, 0.5)),
    ("mimicking", "_LOSS", (4.0, 0.25)),  # 2^-43 and 2^-47
)


def run_mutant(module: str, name: str, factor: float) -> tuple[str, float]:
    """The first failing test of tier-1 with ``module.name`` scaled by ``factor``, or ""."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        for part in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / part, copy / part)
        with open(copy / "src" / "mimicfund" / f"{module}.py", "a", encoding="utf-8") as handle:
            handle.write(f"\n{name} = type({name})({name} * {factor!r})\n")
        start = time.perf_counter()
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-rfE"],
            cwd=copy, capture_output=True, text=True,
        )
        seconds = time.perf_counter() - start
    if result.returncode == 0:
        return "", seconds
    failed = [line for line in result.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return (failed[0].split(" - ")[0] if failed else f"exit {result.returncode}"), seconds


def main(names: list[str]) -> int:
    unknown = set(names) - {name for _, name, _ in CONSTANTS}
    if unknown:
        print(f"unknown constant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed, seconds = run_mutant("model", "SYMMETRY_RTOL", 1.0)
    print(f"control: {failed or 'passed'} ({seconds:.0f} s)", flush=True)
    if failed:
        return 2
    survivors = []
    for module, name, factors in CONSTANTS:
        if names and name not in names:
            continue
        for factor in factors:
            failed, seconds = run_mutant(module, name, factor)
            print(f"{module}.{name} x{factor:g}: {f'killed by {failed}' if failed else 'SURVIVED'} "
                  f"({seconds:.0f} s)", flush=True)
            if not failed:
                survivors.append(f"{module}.{name} x{factor:g}")
    print(f"survivors: {', '.join(survivors) if survivors else 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
