"""Golden CLI outputs: stdout of fixed commands, compared byte for byte.

Each command runs through ``cli.run`` from inside ``tests/golden``, so the
matrix configs stored there are named by relative paths and the outputs
do not depend on where the repository lives.  The outputs pin every
printed figure; a change that alters any of them must say so and
re-record the file deliberately.  The oracle's block order, ball order
by first member and within each block, which the conjtest mismatch
listing prints, is pinned by digest in test_conjugacy.
"""

from pathlib import Path

import pytest

from abcgroups.cli import run

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "enumerate_bs2": ["enumerate", "--group", "bs:2", "--radius", "10"],
    "enumerate_lamplighter2": ["enumerate", "--group", "lamplighter:2", "--radius", "10"],
    "ratio_bs2": ["ratio", "--group", "bs:2", "--radius", "8"],
    "ratio_lamplighter2": ["ratio", "--group", "lamplighter:2", "--radius", "8"],
    "ratio_hyperbolic": ["ratio", "--group", "matrix:hyperbolic.json", "--radius", "9"],
    "folner_json": ["folner", "--k", "2", "--n", "2"],
    "folner_k3_json": ["folner", "--k", "3", "--n", "2"],
    # the bench's two folner jobs: 16,384 and 59,049 elements
    "folner_k2n4_json": ["folner", "--k", "2", "--n", "4"],
    "folner_k3n3_json": ["folner", "--k", "3", "--n", "3"],
    "folner_csv": ["folner", "--k", "2", "--n", "3", "--emit", "csv"],
    "spectral_unit_root": ["spectral", "--matrix", "unit_root.json", "--radius", "6"],
    "spectral_den5": ["spectral", "--matrix", "den5.json", "--radius", "7"],
    # R = {0, +-e_3, +-e_2} makes the epsilon maximum fractional: it reads 2r/5
    "spectral_den5_frac": ["spectral", "--matrix", "den5_frac.json", "--radius", "6"],
    "rewrite_bs2": ["rewrite", "--group", "bs:2", "T g0 t t"],
    "rewrite_lamplighter2": ["rewrite", "--group", "lamplighter:2", "t g0 t G0 T g0 t"],
    "conjtest_hyperbolic": [
        "conjtest",
        "--group",
        "matrix:hyperbolic.json",
        "--radius",
        "4",
        "--oracle-radius",
        "8",
    ],
    "conjtest_bs2": ["conjtest", "--group", "bs:2", "--radius", "6", "--oracle-radius", "12"],
    "conjtest_lamplighter2": [
        "conjtest",
        "--group",
        "lamplighter:2",
        "--radius",
        "6",
        "--oracle-radius",
        "12",
    ],
    # middle radii: the oracle checks the keys about halfway to the bench's
    # ratio radii, each in under half a second
    "conjtest_bs2_r12": [
        "conjtest",
        "--group",
        "bs:2",
        "--radius",
        "12",
        "--oracle-radius",
        "24",
    ],
    "conjtest_lamplighter2_r14": [
        "conjtest",
        "--group",
        "lamplighter:2",
        "--radius",
        "14",
        "--oracle-radius",
        "26",
    ],
    "conjtest_hyperbolic_r8": [
        "conjtest",
        "--group",
        "matrix:hyperbolic.json",
        "--radius",
        "8",
        "--oracle-radius",
        "12",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_stdout(name, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN_DIR)
    assert run(GOLDEN[name]) == 0
    out = capsys.readouterr().out
    assert out.encode("utf-8") == (GOLDEN_DIR / f"{name}.out").read_bytes()
