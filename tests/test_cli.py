import gc
import hashlib
import json
import sys
import time
from pathlib import Path

import pytest

from abcgroups import cli, linalg
from abcgroups.cli import run
from abcgroups.conjugacy import brute_force_partition
from abcgroups.enumeration import enumerate_ball
from abcgroups.groups import BaumslagSolitarContext, MatrixContext

MIXED3 = [[1, 0, 0], [0, 2, 1], [0, 1, 1]]
HYP = ((2, 1), (1, 1))
GOLDEN_DIR = Path(__file__).parent / "golden"


def matrix_path(tmp_path, rows=None):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"rows": rows or MIXED3}))
    return str(path)


def test_enumerate_stdout(capsys):
    assert run(["enumerate", "--group", "bs:2", "--radius", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r,ball,sphere"
    index = enumerate_ball(BaumslagSolitarContext(2), 3)
    for r in range(4):
        ball = index.ball_size(r)
        sphere = len(index.sphere(r))
        assert lines[1 + r] == f"{r},{ball},{sphere}"


def test_ratio_files(tmp_path):
    out = tmp_path / "ratios.csv"
    code = run(
        ["ratio", "--group", "lamplighter:2", "--radius", "6", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "r,ball,sphere,classes_cum,classes_new,cr,scr,F_size,F_classes,U_count"
    )
    assert len(lines) == 8
    script = (tmp_path / "ratios.csv.gp").read_text()
    assert str(out) in script


def test_ratio_stdout_and_threshold(capsys):
    assert run(["ratio", "--group", "bs:2", "--radius", "4", "--f", "const:1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[1].startswith("0,1,1,1,1,1.0,1.0,")


def test_conjtest_agreement(capsys):
    code = run(
        [
            "conjtest",
            "--group",
            "bs:2",
            "--radius",
            "3",
            "--oracle-radius",
            "6",
        ]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["agreement"] is True
    assert report["classes_by_key"] == report["classes_by_oracle"] == 13
    assert report["ball"] == 43
    assert report["mismatches"] == []
    assert report["mismatch_count"] == 0
    assert report["oracle_radius"] == 6


def test_conjtest_default_oracle_radius(capsys):
    assert run(["conjtest", "--group", "bs:2", "--radius", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["oracle_radius"] == 10
    assert report["agreement"] is True


def test_conjtest_bad_oracle_radius(capsys):
    code = run(
        ["conjtest", "--group", "bs:2", "--radius", "4", "--oracle-radius", "2"]
    )
    assert code == 1
    assert "oracle radius" in capsys.readouterr().err


def test_conjtest_has_no_orbit_bound_option(capsys):
    code = run(
        ["conjtest", "--group", "bs:2", "--radius", "2", "--orbit-bound", "5"]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --orbit-bound 5" in captured.err


@pytest.mark.parametrize(
    "rows",
    [((0, 0, 1), (1, 0, 1), (0, 1, 0)), HYP],
    ids=["pisot", "hyperbolic"],
)
def test_conjtest_agrees_without_window_keys(tmp_path, capsys, rows):
    # every p = 0 key is certified, so the report has no count of
    # uncertified keys, for the Pisot companion's complex pair too
    group = f"matrix:{matrix_path(tmp_path, rows)}"
    argv = ["conjtest", "--group", group, "--radius", "3", "--oracle-radius", "6"]
    assert run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["agreement"] is True
    assert "window_keys" not in report


def conjtest_hyperbolic(monkeypatch, capsys, key):
    """The r4/rc8 hyperbolic conjtest report under a substitute class key."""
    monkeypatch.setattr(cli, "conjugacy_key", key)
    group = f"matrix:{GOLDEN_DIR / 'hyperbolic.json'}"
    argv = ["conjtest", "--group", group, "--radius", "4", "--oracle-radius", "8"]
    assert run(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_conjtest_lists_split_blocks(monkeypatch, capsys):
    # a key finer than conjugacy splits every oracle block with two elements
    report = conjtest_hyperbolic(monkeypatch, capsys, lambda ctx, g: g)
    ctx = MatrixContext(HYP)
    blocks = brute_force_partition(ctx, enumerate_ball(ctx, 8), 4, 8)
    split = [
        {"kind": "split", "elements": [ctx.format_element(g) for g in block]}
        for block in blocks
        if len(block) > 1
    ]
    assert len(split) > 20
    assert report["mismatch_count"] == len(split)
    assert report["mismatches"] == split[:20]
    assert report["agreement"] is False


def test_conjtest_lists_unmerged_keys(monkeypatch, capsys):
    # a key coarser than conjugacy joins oracle blocks of one t-exponent
    report = conjtest_hyperbolic(monkeypatch, capsys, lambda ctx, g: g.texp)
    kinds = {m["kind"] for m in report["mismatches"]}
    assert kinds == {"unmerged"}
    assert report["classes_by_key"] == 9
    assert report["agreement"] is False


@pytest.mark.parametrize(
    "config",
    [
        {"rows": [[2.7, 1], [1, 1.2]]},
        {"rows": [[2, 1], [1, 1]], "generators": [[1.9, 0]]},
        {"rows": [[2, 1], [1, 1]], "generators": [[0, 0]]},
        {"rows": [[2, 1], [1, 1]], "generators": [[2, 0]]},
        {"n": 2.0, "rows": [[2, 1], [1, 1]]},
        {"n": True, "rows": [[1]]},
    ],
)
def test_enumerate_rejects_bad_matrix_config(tmp_path, capsys, config):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(config))
    assert run(["enumerate", "--group", f"matrix:{path}", "--radius", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize(
    "config, message",
    [
        ([[2, 1], [1, 1]], "matrix config must be a JSON object"),
        (
            {"rows": [[2, 1], [1, 1]], "generators": [[1, 0, 0]]},
            "kernel vector must have length 2",
        ),
    ],
)
def test_enumerate_bad_matrix_config_message(tmp_path, capsys, config, message):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(config))
    assert run(["enumerate", "--group", f"matrix:{path}", "--radius", "3"]) == 1
    assert message in capsys.readouterr().err


def test_folner_json(capsys):
    assert run(["folner", "--k", "2", "--n", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["box_size"] == 8
    assert report["classes"] == 8
    assert report["ratio"] == "1"
    assert report["matches"] is True
    assert report["right_defects"]["t"] == "2"


def test_folner_csv(capsys):
    assert run(["folner", "--k", "2", "--n", "2", "--emit", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,box_size,classes,ratio,right_defect_t,left_defect_t"
    assert lines[1] == "1,8,8,1,2,2"
    assert lines[2] == "2,128,128,1,1,3/2"


def test_folner_rejects_bad_n(capsys):
    assert run(["folner", "--k", "2", "--n", "0"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("n", [100_000, 10_000_000])
def test_folner_huge_box_hits_the_cap_at_once(n, capsys):
    # n k^(3n) has more digits than Python converts to a string, and
    # k^(3n) alone takes seconds to build at n = 10^7
    start = time.perf_counter()
    assert run(["folner", "--k", "3", "--n", str(n)]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"n = {n}" in captured.err
    assert "cap 5000000" in captured.err


def test_folner_csv_checks_the_largest_box_first(monkeypatch, capsys):
    # n = 7 is over the default cap; no smaller box is built or keyed first
    calls = []
    experiment = cli.translate_experiment

    def recording(ctx, n, *args):
        calls.append(n)
        return experiment(ctx, n, *args)

    monkeypatch.setattr(cli, "translate_experiment", recording)
    assert run(["folner", "--k", "2", "--n", "7", "--emit", "csv"]) == 2
    assert calls == [7]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n = 7" in captured.err


def test_folner_n1_cap_is_applied(capsys):
    # n1 is derived from the box (the golden files pin it), so no cap on
    # it is accepted
    assert run(["folner", "--k", "2", "--n", "2", "--n1-cap", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --n1-cap 5" in captured.err


@pytest.mark.parametrize("cap", ["0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--group", "bs:2", "--radius", "3"],
        ["ratio", "--group", "bs:2", "--radius", "3"],
        ["conjtest", "--group", "bs:2", "--radius", "2"],
        ["folner", "--k", "2", "--n", "1"],
        ["spectral", "--matrix", str(GOLDEN_DIR / "unit_root.json"), "--radius", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_nonpositive_element_cap_is_refused(argv, cap, capsys):
    assert run([*argv, "--element-cap", cap]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--element-cap" in captured.err


@pytest.mark.parametrize(
    "argv, text",
    [
        (["enumerate", "--group", "bs:1_0", "--radius", "1"], "1_0"),
        (["enumerate", "--group", "bs:\uff12", "--radius", "1"], "\uff12"),
        (["enumerate", "--group", "lamplighter: 2", "--radius", "1"], " 2"),
        (["enumerate", "--group", "bs:2", "--radius", "1_0"], "1_0"),
        (["enumerate", "--group", "bs:2", "--radius", "1", "--element-cap", "1_000"], "1_000"),
        (["ratio", "--group", "bs:2", "--radius", "2", "--f", "const:1_0"], "1_0"),
        (["conjtest", "--group", "bs:2", "--radius", "1", "--oracle-radius", " 3"], " 3"),
        (["folner", "--k", "\uff12", "--n", "1"], "\uff12"),
        (["folner", "--k", "2", "--n", "1\n"], "1\n"),
        (["spectral", "--matrix", str(GOLDEN_DIR / "unit_root.json"), "--radius", "\u0661"], "\u0661"),
    ],
    ids=[
        "bs-underscore",
        "bs-fullwidth",
        "lamplighter-space",
        "radius",
        "element-cap",
        "const",
        "oracle-radius",
        "k",
        "n",
        "spectral-radius",
    ],
)
def test_integers_are_not_coerced(argv, text, capsys):
    # int() would take each of these; they are refused, naming the text
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert repr(text) in captured.err


def test_spectral_csv(tmp_path, capsys):
    path = matrix_path(tmp_path)
    assert run(["spectral", "--matrix", path, "--radius", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r,ball,p_count,eps_max_num,eps_max_den"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[2]) for r in rows] == [1, 3, 5, 7]
    assert [int(r[3]) for r in rows] == [0, 1, 2, 3]
    assert all(int(r[4]) == 1 for r in rows)


def test_spectral_scans_the_spectrum_once(monkeypatch, capsys):
    # the MatrixContext holds the root-of-unity orders; the tables reuse them
    original = linalg.cyclotomic_orders
    calls = []

    def counting(matrix):
        calls.append(matrix)
        return original(matrix)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "abcgroups":
            if getattr(module, "cyclotomic_orders", None) is original:
                monkeypatch.setattr(module, "cyclotomic_orders", counting)
    argv = ["spectral", "--matrix", str(GOLDEN_DIR / "unit_root.json")]
    assert run([*argv, "--radius", "2"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_spectral_refuses_non_semisimple(tmp_path, capsys):
    path = matrix_path(tmp_path, rows=[[1, 1], [0, 1]])
    assert run(["spectral", "--matrix", path, "--radius", "3"]) == 1
    assert "semisimple" in capsys.readouterr().err


# companions of the Salem x^4 - x^3 - x^2 - x + 1, with two roots on the
# unit circle that are not roots of unity, and of (x^2 - 3x + 1)^2
SALEM = [[0, 0, 0, -1], [1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
DOUBLE_ROOTS = [[0, 0, 0, -1], [1, 0, 0, 6], [0, 1, 0, -11], [0, 0, 1, 6]]
# hyperbolic, with roots near 10^200 and 10^-200
HUGE = [[10**200 + 1, 10**200], [1, 1]]


@pytest.mark.parametrize(
    "rows,cause",
    [([[0, -1], [1, 0]], "root-of-unity"), (SALEM, "Salem")],
    ids=["rotation", "salem"],
)
def test_ratio_refuses_matrices_without_exact_keys(tmp_path, capsys, rows, cause):
    group = f"matrix:{matrix_path(tmp_path, rows)}"
    assert run(["enumerate", "--group", group, "--radius", "3"]) == 0
    capsys.readouterr()
    assert run(["ratio", "--group", group, "--radius", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert cause in captured.err


@pytest.mark.parametrize("rows", [DOUBLE_ROOTS, HUGE], ids=["double-roots", "float-range"])
def test_ratio_keys_matrices_off_the_unit_circle(tmp_path, capsys, rows):
    # a non-semisimple spectrum and 200-digit entries: no eigenvalue lies on
    # the unit circle, so the tent sum certifies both
    group = f"matrix:{matrix_path(tmp_path, rows)}"
    assert run(["ratio", "--group", group, "--radius", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(captured.out.splitlines()) == 5


def test_conjtest_agrees_on_huge_entries(tmp_path, capsys):
    group = f"matrix:{matrix_path(tmp_path, HUGE)}"
    argv = ["conjtest", "--group", group, "--radius", "3", "--oracle-radius", "6"]
    assert run(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["agreement"] is True
    assert report["classes_by_key"] == report["classes_by_oracle"] == 43


def test_rewrite(capsys):
    assert run(["rewrite", "--group", "bs:2", "T g0 t t"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "word: T g0 t t"
    assert lines[1] == "value: (1/2^1; t^1)"
    assert lines[2] == "t_exponent: 1"
    assert lines[3] == "staircase: T g0 t t"
    assert lines[4] == "ascending: g0 t"
    assert lines[5] == "ascending_value: (1; t^1)"


def test_rewrite_negative_exponent_skips_forms(capsys):
    assert run(["rewrite", "--group", "bs:2", "T T g0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[2] == "t_exponent: -2"


# ---------------------------------------------------------------------------
# The reach E of each command: every bs K-part it meets lies in k^-E Z, and
# every lamp in [-E, E]
# ---------------------------------------------------------------------------


def recorded_reaches(monkeypatch) -> list:
    """The reach the CLI passes with each group descriptor it parses."""
    reaches = []
    parse = cli.parse_group_descriptor

    def recording(desc, reach):
        reaches.append(reach)
        return parse(desc, reach=reach)

    monkeypatch.setattr(cli, "parse_group_descriptor", recording)
    return reaches


@pytest.mark.parametrize(
    "argv, reach",
    [
        (["enumerate", "--group", "bs:2", "--radius", "5"], 10),
        (["ratio", "--group", "bs:3", "--radius", "4"], 8),
        (["conjtest", "--group", "bs:2", "--radius", "3"], 14),
        (["conjtest", "--group", "bs:2", "--radius", "2", "--oracle-radius", "5"], 7),
        (["rewrite", "--group", "bs:2", "T T g0 t"], 4),
        (["enumerate", "--group", "lamplighter:2", "--radius", "5"], 10),
        (["ratio", "--group", "lamplighter:0", "--radius", "4"], 8),
        (["conjtest", "--group", "lamplighter:3", "--radius", "3"], 14),
        (["rewrite", "--group", "lamplighter:2", "t t g0 T"], 4),
    ],
)
def test_each_command_takes_its_reach_from_its_parameters(
    monkeypatch, capsys, argv, reach
):
    reaches = recorded_reaches(monkeypatch)
    assert run(argv) == 0
    assert reaches == [reach]


def test_folner_reach_is_the_box_grid(monkeypatch, capsys):
    reaches = []
    experiment = cli.translate_experiment

    def recording(ctx, n, *args):
        reaches.append(ctx.reach)
        return experiment(ctx, n, *args)

    monkeypatch.setattr(cli, "translate_experiment", recording)
    assert run(["folner", "--k", "3", "--n", "2"]) == 0
    assert run(["folner", "--k", "2", "--n", "3", "--emit", "csv"]) == 0
    assert reaches == [2, 3, 3, 3]


# T^70 g0 t^70 = (1/2^70; t^0), 141 letters
DEEP_WORD = " ".join(["T"] * 70 + ["g0"] + ["t"] * 70)


def test_rewrite_reaches_a_deep_word(monkeypatch, capsys):
    reaches = recorded_reaches(monkeypatch)
    assert run(["rewrite", "--group", "bs:2", DEEP_WORD]) == 0
    assert reaches == [141]
    assert capsys.readouterr().out == (
        f"word: {DEEP_WORD}\nvalue: (1/2^70; t^0)\nt_exponent: 0\n"
        f"staircase: {DEEP_WORD}\n"
    )


def test_conjtest_reach_covers_the_oracle_shifts(monkeypatch, capsys):
    # the oracle applies phi^j, |j| <= 40, to the K-parts of S^3
    reaches = recorded_reaches(monkeypatch)
    argv = ["conjtest", "--group", "bs:2", "--radius", "3", "--oracle-radius", "40"]
    assert run(argv) == 0
    assert reaches == [43]
    assert json.loads(capsys.readouterr().out) == {
        "agreement": True,
        "ball": 43,
        "classes_by_key": 13,
        "classes_by_oracle": 13,
        "group": "bs:2",
        "mismatch_count": 0,
        "mismatches": [],
        "oracle_radius": 40,
        "radius": 3,
    }


def test_a_kpart_past_the_reach_exits_2(monkeypatch, capsys):
    # BFS to radius 4 builds 1/2^3 (T T T g0), past a reach of 2
    monkeypatch.setattr(cli, "_ball_reach", lambda radius: radius - 2)
    assert run(["enumerate", "--group", "bs:2", "--radius", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "reach 2" in captured.err


def test_lamplighter_enumerate_reach_covers_the_ball(monkeypatch, capsys):
    # S^6 of lamplighter:0 lights lamps at +-5 (t^5 g0 at radius 6), inside
    # the reach 12; one short of them BFS exits 2
    reaches = recorded_reaches(monkeypatch)
    assert run(["enumerate", "--group", "lamplighter:0", "--radius", "6"]) == 0
    assert reaches == [12]
    assert capsys.readouterr().out == (
        "r,ball,sphere\n0,1,1\n1,5,4\n2,17,12\n3,53,36\n4,153,100\n"
        "5,421,268\n6,1125,704\n"
    )
    monkeypatch.setattr(cli, "_ball_reach", lambda radius: radius - 2)
    assert run(["enumerate", "--group", "lamplighter:0", "--radius", "6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "reach 4" in captured.err


def test_lamplighter_ratio_reach_covers_the_keys(capsys):
    # the keys fold the lamp fields of reach 12 into class sums mod 3
    assert run(["ratio", "--group", "lamplighter:3", "--radius", "6"]) == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f97a6fd8da119b7fbd7279211b51b39a9d6755105fc0aa2dc369522e4b1477a3"
    )
    assert text.splitlines()[-1] == (
        "6,515,286,79,32,0.1533980582524272,0.11188811188811189,34,14,289"
    )


@pytest.mark.parametrize(
    "group, rc, ball, classes",
    [("lamplighter:2", 40, 22, 12), ("lamplighter:0", 30, 53, 25)],
)
def test_lamplighter_conjtest_reach_covers_the_oracle_shifts(
    monkeypatch, capsys, group, rc, ball, classes
):
    # the oracle moves the lamps of S^3 by t^j, |j| <= RC
    reaches = recorded_reaches(monkeypatch)
    argv = ["conjtest", "--group", group, "--radius", "3", "--oracle-radius", str(rc)]
    assert run(argv) == 0
    assert reaches == [3 + rc]
    assert json.loads(capsys.readouterr().out) == {
        "agreement": True,
        "ball": ball,
        "classes_by_key": classes,
        "classes_by_oracle": classes,
        "group": group,
        "mismatch_count": 0,
        "mismatches": [],
        "oracle_radius": rc,
        "radius": 3,
    }


# t^70 g0 T^70 = (1@70; t^0), 141 letters
DEEP_LAMP_WORD = " ".join(["t"] * 70 + ["g0"] + ["T"] * 70)


def test_lamplighter_rewrite_reaches_a_deep_word(monkeypatch, capsys):
    reaches = recorded_reaches(monkeypatch)
    assert run(["rewrite", "--group", "lamplighter:2", DEEP_LAMP_WORD]) == 0
    assert reaches == [141]
    assert capsys.readouterr().out == (
        f"word: {DEEP_LAMP_WORD}\nvalue: (1@70; t^0)\nt_exponent: 0\n"
        f"staircase: {DEEP_LAMP_WORD}\n"
    )


def test_rewrite_bad_letter(capsys):
    assert run(["rewrite", "--group", "bs:2", "g0 q t"]) == 1
    assert "error:" in capsys.readouterr().err


def test_rewrite_refuses_non_ascii_digits(capsys):
    # an Arabic-Indic zero is a digit to int() but not to the word syntax
    assert run(["rewrite", "--group", "bs:2", "g\u0660 t"]) == 1
    assert "bad word letter" in capsys.readouterr().err


def test_exit_codes(capsys):
    assert run(["enumerate", "--group", "heisenberg:3", "--radius", "2"]) == 1
    capsys.readouterr()
    assert (
        run(
            [
                "enumerate",
                "--group",
                "bs:2",
                "--radius",
                "6",
                "--element-cap",
                "20",
            ]
        )
        == 2
    )
    capsys.readouterr()
    assert run([]) == 1
    capsys.readouterr()
    assert run(["frobnicate"]) == 1
    capsys.readouterr()


def test_collector_is_paused_for_the_handler(monkeypatch, capsys):
    seen = []

    def stub(args):
        seen.append(gc.isenabled())
        return 0

    monkeypatch.setitem(cli._HANDLERS, "enumerate", stub)
    assert gc.isenabled()
    assert run(["enumerate", "--group", "bs:2", "--radius", "1"]) == 0
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["enumerate", "--group", "bs:2", "--radius", "2"], 0),
        (["ratio", "--group", "bs:1", "--radius", "2"], 1),
        (["enumerate", "--group", "bs:2", "--radius", "12", "--element-cap", "10"], 2),
    ],
    ids=["exit0", "exit1", "exit2"],
)
def test_collector_state_is_restored_on_every_exit(enabled, argv, code, capsys):
    try:
        if not enabled:
            gc.disable()
        assert run(argv) == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "command, sizes",
    [
        (["ratio", "--group", "bs:2", "--radius"], (6, 10)),
        (["ratio", "--group", "lamplighter:2", "--radius"], (6, 10)),
        (["ratio", "--group", "matrix:{hyp}", "--radius"], (4, 7)),
        (["conjtest", "--group", "bs:2", "--radius"], (3, 5)),
        (["folner", "--n"], (2, 3)),
    ],
    ids=["ratio-bs", "ratio-lamplighter", "ratio-matrix", "conjtest", "folner"],
)
def test_paused_commands_leave_no_growing_cyclic_garbage(command, sizes, tmp_path, capsys):
    # the premise of the pause: what a command leaves for the collector is
    # argparse's parser, whatever the size of the ball or box
    hyp = matrix_path(tmp_path, HYP)
    argv = [arg.format(hyp=hyp) for arg in command]
    found = []
    for size in sizes:
        gc.collect()
        assert run(argv + [str(size)]) == 0
        found.append(gc.collect())
    assert found[0] == found[1]
