"""End-to-end CLI behavior: deterministic output, JSON shapes, exit codes."""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from qdisk.corpus import random_board
from qdisk.disk_core import render_board

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "qdisk.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=120,
    )


def test_det_2x2():
    result = run_cli("det", str(FIXTURES / "board2x2.txt"))
    assert result.returncode == 0
    assert result.stdout.strip() == "0"


def test_validate_glue_fixture():
    result = run_cli("validate", str(FIXTURES / "fig1.glue"))
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["faces"] == 13
    assert payload["boundary_vertex_squares"]["4"] == 1


def test_matrix_glue_fixture():
    result = run_cli("matrix", str(FIXTURES / "fig1.glue"))
    payload = json.loads(result.stdout)
    assert payload["rows"] == 6 and payload["cols"] == 7
    assert payload["entries"][0] == [1, 1, 0, 1, 0, 0, 0]


def test_diagonals_lines(tmp_path):
    f = tmp_path / "b.txt"
    f.write_text("##\n##\n")
    result = run_cli("diagonals", str(f))
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 4
    assert all("good=True" in line for line in lines)


def test_tilings_counts(tmp_path):
    f = tmp_path / "b.txt"
    f.write_text("###\n###\n")
    assert run_cli("tilings", str(f)).stdout.strip() == "3"
    signed = run_cli("tilings", str(f), "--signed").stdout.strip()
    assert signed in ("1", "-1")
    listing = json.loads(run_cli("tilings", str(f), "--list").stdout)
    assert len(listing) == 3


def test_match_loner_fixture():
    result = run_cli("match", str(FIXTURES / "loner.board"))
    payload = json.loads(result.stdout)
    assert len(payload["pairs"]) == 2
    assert payload["loner"] is not None
    assert payload["trace"]["tilings"] == 5


def test_ldu_and_rank(tmp_path):
    f = tmp_path / "b.txt"
    f.write_text("###\n###\n")
    payload = json.loads(run_cli("ldu", str(f)).stdout)
    assert payload["D_shape"] == [3, 3]
    assert len(payload["D_ones"]) == 3
    assert run_cli("rank", str(f)).stdout.strip() == "3"


def test_solve_roundtrip(tmp_path):
    f = tmp_path / "b.txt"
    f.write_text("##\n##\n")
    ok = json.loads(run_cli("solve", str(f), "--rhs", "1,1").stdout)
    assert ok["x"] is not None
    bad = json.loads(run_cli("solve", str(f), "--rhs", "1,0").stdout)
    assert bad["x"] is None and bad["code"] == "no_rational_solution"


def test_cutpaste_board_output(tmp_path):
    f = tmp_path / "b.txt"
    f.write_text("###\n###\n")
    payload = json.loads(run_cli("cutpaste", str(f)).stdout)
    assert all(c["format"] == "board" for c in payload["components"])
    assert payload["balanced"] is True


def test_cutpaste_glue_output_for_slit_disk():
    payload = json.loads(run_cli("cutpaste", str(FIXTURES / "fig1.glue")).stdout)
    assert payload["components"]
    assert all(c["format"] == "glue" for c in payload["components"])


def test_error_is_structured_json(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("#.\n.#\n")
    result = run_cli("validate", str(f))
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["code"] == "not_a_disk"
    assert payload["location"] == str(f)


def test_stdin_input():
    result = run_cli("det", "-", stdin="##\n##\n")
    assert result.stdout.strip() == "0"


def test_contradicting_side_flag_is_structured(tmp_path):
    f = tmp_path / "b.txt"
    f.write_text("##\n")  # balanced diagonal forces the deleted side
    result = run_cli("cutpaste", str(f), "--corner", "0,0", "--side", "left")
    assert result.returncode == 1
    assert json.loads(result.stdout)["code"] == "invalid_argument"


def test_solve_rhs_must_have_one_value_per_black_square(tmp_path):
    f = tmp_path / "b.txt"
    f.write_text("###\n###\n")  # three black squares
    for rhs in ("1", "1,2,3,4"):
        result = run_cli("solve", str(f), "--rhs", rhs)
        assert result.returncode == 1, rhs
        assert json.loads(result.stdout)["code"] == "invalid_argument"
        assert "Traceback" not in result.stderr


def test_cutpaste_corner_is_parsed_by_disk_type(tmp_path):
    f = tmp_path / "b.txt"
    f.write_text("###\n###\n")
    for path, corner in ((str(f), "0"), (str(FIXTURES / "fig1.glue"), "0,0")):
        result = run_cli("cutpaste", path, "--corner", corner)
        assert result.returncode == 1, (path, corner)
        assert json.loads(result.stdout)["code"] == "invalid_argument"
        assert "Traceback" not in result.stderr


def test_glued_corner_out_of_range_is_not_a_corner():
    # fig1.glue has 23 vertices; -1 must not wrap around to the last one
    for corner in ("999", "-1"):
        result = run_cli("cutpaste", str(FIXTURES / "fig1.glue"), "--corner", corner)
        assert result.returncode == 1, corner
        assert json.loads(result.stdout)["code"] == "not_a_corner"
        assert "Traceback" not in result.stderr


def test_negative_board_corner_in_two_tokens(tmp_path):
    # argparse alone would read "-1,0" as an option and exit 2 with a usage line
    f = tmp_path / "b.txt"
    f.write_text("###\n###\n")
    two = run_cli("cutpaste", str(f), "--corner", "-1,0")
    joined = run_cli("cutpaste", str(f), "--corner=-1,0")
    assert two.returncode == joined.returncode == 1, two.stderr
    assert two.stdout == joined.stdout
    assert json.loads(two.stdout)["code"] == "not_a_corner"
    assert run_cli("cutpaste", str(f), "--corner", "0,0").stdout == run_cli("cutpaste", str(f)).stdout


def test_unexpected_exception_is_structured(monkeypatch, capsys):
    from qdisk import cli

    def boom(disk):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "ldu_factorize", boom)
    assert cli.main(["ldu", str(FIXTURES / "board2x2.txt")]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["code"] == "internal"
    assert "RecursionError" in payload["message"]


def test_long_strip_never_prints_a_traceback(tmp_path):
    # 600 surgery levels, well past the default recursion limit
    f = tmp_path / "strip.txt"
    f.write_text("#\n" * 1200)
    result = run_cli("ldu", str(f))
    assert "Traceback" not in result.stderr
    assert result.returncode == 0, result.stdout
    # the trace nests two JSON levels per surgery level, 1,200 in all, past
    # the recursion limit of the json parser
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2000)
    try:
        payload = json.loads(result.stdout)
    finally:
        sys.setrecursionlimit(limit)
    assert payload["D_shape"] == [600, 600]
    assert len(payload["D_ones"]) == 600
    assert len(payload["L"]) == 600 and len(payload["U"]) == 600


def test_output_is_byte_identical_across_runs(tmp_path):
    f = tmp_path / "b.txt"
    f.write_text("###\n###\n")
    first = run_cli("ldu", str(f)).stdout
    second = run_cli("ldu", str(f)).stdout
    assert first == second


def test_corpus_and_crosscheck():
    listing = run_cli("corpus", "--all-boards", "--max-cells", "5")
    again = run_cli("corpus", "--all-boards", "--max-cells", "5")
    assert listing.stdout == again.stdout
    assert len(json.loads(listing.stdout)) == 1 + 1 + 2 + 5 + 12

    report = run_cli("crosscheck", "--all-boards", "--max-cells", "7")
    assert report.returncode == 0
    payload = json.loads(report.stdout)
    assert payload["discrepancies"] == []
    assert payload["checked"] > 100


def test_crosscheck_random_and_glued():
    report = run_cli("crosscheck", "--random", "--seed", "5", "--count", "10", "--max-cells", "12")
    assert report.returncode == 0
    report = run_cli("crosscheck", "--glued", "--seed", "5", "--count", "5", "--max-cells", "14")
    assert report.returncode == 0
    assert json.loads(report.stdout)["discrepancies"] == []


# SHA-256 of the `qdisk ldu` stdout, pinned so that any change to the
# factorization engine keeps the emitted factors, labeling and trace byte for
# byte.  Rectangles are written as H lines of W cells.
LDU_GOLDEN = {
    "1x60": "5f6cc14b34102596911cc7423768aac7a5e17ca4fce37238a2c342ed844a220e",
    "2x30": "885d3171421942b011757a96fe9319440a6fb6456cd91be14a118c665b9317dc",
    "3x30": "efc74589d6c350f5cebb0dc669ed09d208d6f20e66a1aeb3599b7f5cd0bc4e7e",
    "10x10": "abe8fe7a45364247e93053b9fcda48d58dbe05b02e88894fb9ed6e1f2fb23b75",
    "9x12": "17a14e84747ad68c67f30105719008eb3523ab043f0ed0d835a9b19f6143f8cd",
    "random96": "12fb645ba6622832a25821cae82628898210dc7b16d86d73143629cd2eae0987",
    "fig1.glue": "aff9a724e25b76416e4a871d22951e894027e1857a75e92b4f394ffc772edf35",
    "loner.board": "b170677d09dedfb399b1c795b33e83f8d453cb0f245e21d817a3fc39b66e338a",
}


def _golden_input(name: str, tmp_path) -> str:
    if (FIXTURES / name).exists():
        return str(FIXTURES / name)
    if name == "random96":
        text = render_board(random_board(random.Random(1), 96))
    else:
        w, h = map(int, name.split("x"))
        text = ("#" * w + "\n") * h
    path = tmp_path / f"{name}.board"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("name", sorted(LDU_GOLDEN))
def test_ldu_output_bytes_are_pinned(name, tmp_path):
    result = run_cli("ldu", _golden_input(name, tmp_path))
    assert result.returncode == 0, result.stdout + result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == LDU_GOLDEN[name]


# SHA-256 of `qdisk diagonals --json` and of `qdisk cutpaste` stdout (default
# diagonal) on the same inputs, pinned so that diagonal tracing, the canonical
# choice and the surgery along it keep their bytes.
DIAGONALS_GOLDEN = {
    "1x60": "4fcf14bcb7a45dbce453a41687c494462b8a51ab34be5aadae22ef5561949072",
    "2x30": "758352590b0cff354204d8070a78dcb56d53e56734f27a11eb80ea70646fa9c5",
    "3x30": "b16a96360b25834cded56a555239aa1580d72464a950e5cfe7961da09a6ca1ae",
    "10x10": "5d81dc3cc207f547b197f07c517aed65ebe9f15b1b9da86c01329d17c46b1ff5",
    "9x12": "bef03f92ac314cac6016fb9fbb5fa7fdc5f19715ac1db9acae474c065c730136",
    "random96": "96b9030f9c5949a239ec7c3cfb8f79731a640409c993351c0d21e4b6039ef9ed",
    "fig1.glue": "38910477fb6ff50aa950506c638e78d70f82f1b6d6fe075dbac11e8094a58a56",
    "loner.board": "07374d3d93eba022703fe957e93eaa561165489c947b947047cbe7e453744fd3",
}
CUTPASTE_GOLDEN = {
    "1x60": "345a46399623ad7b6ea280f8f0ea3782ce134dc02fb86c810523a7fb5dc77404",
    "2x30": "3a56ccc555ed46a56a856a4b3ad9b57f39de191c5c521504d778f4229f8b5c3e",
    "3x30": "17d203b2021ef385faf0bbc9bec076e365cd7dd81c4479577efca2b58a74f509",
    "10x10": "4c664786b805446d571828e09b1bfc60114e8c9df20e6cc5abbe47fd27e22245",
    "9x12": "2be14cec66242a1af8160bb174df8e3e5be809b62a82ad4a10784472284e7143",
    "random96": "ef055108b8bdd13d16c7136557311cd7490b8702a34ba8921fe1c388e5f958bb",
    "fig1.glue": "c7cbcbf9ee59eed92bc34f9e8ae156ffbbdd784cd560b19b0c4b7c26a4f1b594",
    "loner.board": "1ed4b0d7cbaf822492146a18deffd53c5e990d12ac9e476c53bd2554e435e7b6",
}


@pytest.mark.parametrize("name", sorted(DIAGONALS_GOLDEN))
def test_diagonals_output_bytes_are_pinned(name, tmp_path):
    result = run_cli("diagonals", _golden_input(name, tmp_path), "--json")
    assert result.returncode == 0, result.stdout + result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == DIAGONALS_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CUTPASTE_GOLDEN))
def test_cutpaste_output_bytes_are_pinned(name, tmp_path):
    result = run_cli("cutpaste", _golden_input(name, tmp_path))
    assert result.returncode == 0, result.stdout + result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == CUTPASTE_GOLDEN[name]


# SHA-256 of `qdisk match` and of `qdisk tilings --list` stdout, pinned so that
# the surgery that builds the matching and the enumeration order of the
# tilings keep their bytes.  fig1.glue has 13 squares and so no tiling.
MATCH_GOLDEN = {
    "1x60": "b38423f19b43485f3476a8928d58da50dcf24438db334fd6cbed3a89cea41a39",
    "2x8": "c05105b19c106dc32c570f9d8459be4249d7d8ad262c44d2f6f3752d8538868f",
    "4x4": "22a8a9d42b1d94d01964e7d1a0d53bac14ca9702e6b3faaecf1ccb4a8147c8d5",
    "5x6": "c45a0b93b3d7a31f8806ceeec592dd3bc3fb856b90877e2e0af93010cc711d6c",
    "6x6": "a4759ab37710c92245ce39a9f113d971d181f776270e983916ead915c6a7c790",
    "fig1.glue": "47d5fdcb12b3dc9e8f7c1a9ed10ac6c0dd0614d954f7797bdb05cb3726b228e1",
    "loner.board": "04a82300ffb599f582647bef49ddc471ec17fc27233cb53fd5acc5628def8ca7",
}
TILINGS_LIST_GOLDEN = {
    "1x60": "7bcba502e867fc58eadb3082a30f8ad071a142d95e42bb17064134076a4f1245",
    "2x8": "6fe2246a536d41b5ef38b351ad2dad3dceb7a15442fead51a3da95c9dcafbc37",
    "4x4": "623edcb8c1494aac1eaa9fa36b766e701bfc7ca6fb81b725e8b641d30ce66788",
    "5x6": "679d42200fff2cac4f43f38b98bbf71d79be0b8899e96c95ddbffddf49d53b08",
    "6x6": "e7706bfb67f7439a24d0d2ca74a5617e667cb0368c123e6a6c8d20f357194be0",
    "fig1.glue": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "loner.board": "5db44a2ae8b517d859e8d69d31a1d02c262c5288e0d224919b06e2f74f063dd5",
}


@pytest.mark.parametrize("name", sorted(MATCH_GOLDEN))
def test_match_output_bytes_are_pinned(name, tmp_path):
    result = run_cli("match", _golden_input(name, tmp_path))
    assert result.returncode == 0, result.stdout + result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == MATCH_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(TILINGS_LIST_GOLDEN))
def test_tilings_list_output_bytes_are_pinned(name, tmp_path):
    result = run_cli("tilings", _golden_input(name, tmp_path), "--list")
    assert result.returncode == 0, result.stdout + result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == TILINGS_LIST_GOLDEN[name]
