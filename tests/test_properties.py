"""Property tests: no board text, glue text or --corner token makes the CLI
fail with anything but a structured error."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from qdisk import cli
from qdisk.corpus import random_board

FIG1 = (Path(__file__).parent / "fixtures" / "fig1.glue").read_text()

board_text = st.lists(
    st.text(alphabet="##.", min_size=1, max_size=5), min_size=1, max_size=5
).map(lambda rows: "\n".join(rows) + "\n")
disk_text = st.one_of(board_text, st.just(FIG1))

# boards span at most 5x5 cells and fig1.glue has 23 vertices, so many
# tokens name a real corner
coordinate = st.integers(min_value=-1, max_value=5)
corner_token = st.one_of(
    st.none(),
    st.integers(min_value=-2, max_value=25).map(str),
    st.tuples(coordinate, coordinate).map(lambda p: f"{p[0]},{p[1]}"),
    st.sampled_from(["999", "-1", "1,2,3", "x", ""]),
)


def _run(argv, text):
    out = io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(text=disk_text, corner=corner_token)
def test_diagonals_and_cutpaste_fail_only_with_structured_errors(text, corner):
    runs = [["diagonals", "-", "--json"], ["cutpaste", "-"]]
    if corner is not None:
        runs[1] += ["--corner", corner]
    for argv in runs:
        code, stdout = _run(argv, text)
        payload = json.loads(stdout)
        assert code in (0, 1), argv
        if code == 1:
            assert payload["code"] != "internal", (argv, payload)


# -- glue text ------------------------------------------------------------------

GLUE_COMMANDS = (["validate"], ["diagonals", "--json"], ["cutpaste"], ["ldu"], ["match"])


@st.composite
def mutated_glue_text(draw):
    """The glue text of a random board's complex, with one gluing removed,
    retargeted or added (or left as it is)."""
    seed = draw(st.integers(min_value=0, max_value=10**6))
    disk = random_board(seed, draw(st.integers(min_value=1, max_value=10))).to_complex()
    square = st.integers(min_value=0, max_value=disk.n - 1)
    slot = st.integers(min_value=0, max_value=3)
    gluings = [list(g) for g in disk.gluing_list()]
    op = draw(st.sampled_from(["none", "remove", "retarget", "add"]))
    if op == "add" or not gluings:
        gluings.append([draw(square), draw(slot), draw(square), draw(slot)])
    elif op != "none":
        i = draw(st.integers(min_value=0, max_value=len(gluings) - 1))
        if op == "remove":
            del gluings[i]
        else:
            field = draw(st.integers(min_value=0, max_value=3))
            gluings[i][field] = draw(square if field in (0, 2) else slot)
    lines = [f"squares {disk.n}"] + [f"glue {a} {e} {b} {f}" for a, e, b, f in gluings]
    return "\n".join(lines) + "\n"


squares_line = st.integers(min_value=-1, max_value=6).map(lambda n: f"squares {n}")
gluing_line = st.tuples(
    st.integers(min_value=-1, max_value=6),
    st.integers(min_value=-1, max_value=4),
    st.integers(min_value=-1, max_value=6),
    st.integers(min_value=-1, max_value=4),
).map(lambda g: "glue {} {} {} {}".format(*g))
# a header and random gluings, sometimes after a stray line of either kind
random_glue_text = st.tuples(
    st.lists(st.one_of(squares_line, gluing_line), max_size=1),
    st.integers(min_value=0, max_value=6),
    st.lists(gluing_line, max_size=10),
).map(lambda t: "\n".join([*t[0], f"squares {t[1]}", *t[2]]) + "\n")


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(text=st.one_of(mutated_glue_text(), random_glue_text))
def test_glue_text_fails_only_with_structured_errors(text):
    for command in GLUE_COMMANDS:
        argv = [*command[:1], "-", "--format", "glue", *command[1:]]
        code, stdout = _run(argv, text)
        assert code in (0, 1), argv
        if code == 1:
            payload = json.loads(stdout)
            assert payload["code"] != "internal", (argv, text, payload)
