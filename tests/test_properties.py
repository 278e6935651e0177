"""Property tests: no board text and no --corner token makes the CLI fail
with anything but a structured error."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from qdisk import cli

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
