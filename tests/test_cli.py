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
    # past the recursion limit, the failure is reported as structured JSON
    f = tmp_path / "strip.txt"
    f.write_text("#\n" * 1200)
    result = run_cli("ldu", str(f))
    assert "Traceback" not in result.stderr
    payload = json.loads(result.stdout)
    assert result.returncode == 0 or payload["code"] == "internal"


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
