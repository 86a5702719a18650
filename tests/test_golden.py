"""Golden outputs: the CLI's files compared byte for byte with ``tests/golden/``.

Each case is a directory of ``tests/golden/`` and the arguments whose
``--output-dir`` it is, run under ``SOURCE_DATE_EPOCH=0``.  Only outputs
whose bytes do not depend on the BLAS kernel are here: the default study's
CSVs and manifests gave the same bytes under five OpenBLAS kernels.  A
change that moves them on purpose rewrites them with
``python tests/golden/regenerate.py`` and says in CHANGES.md which bytes
moved and why.
"""

from pathlib import Path

import pytest

from mimicfund import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = {"study-default": ["study"]}


def write(argv, directory) -> None:
    """Run ``mimicfund <argv> --output-dir <directory>`` in process."""
    if cli.main([*argv, "--output-dir", str(directory)]) != cli.EXIT_OK:
        raise RuntimeError(f"mimicfund {' '.join(argv)} failed")


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_are_the_golden_bytes(name, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    write(CASES[name], tmp_path)
    capsys.readouterr()
    expected = GOLDEN / name
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        path.name for path in expected.iterdir()
    )
    for path in sorted(expected.iterdir()):
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name
