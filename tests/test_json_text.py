"""The CLI's JSON writer against json.dumps(indent=2, sort_keys=True)."""

import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from birkhoff.cli import _json_rows, _json_text  # noqa: E402

LEAVES = (st.none() | st.booleans()
          | st.integers() | st.integers(min_value=-2**200, max_value=2**200)
          | st.floats() | st.text())
JSON_VALUES = st.recursive(
    LEAVES,
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=40)


@given(JSON_VALUES)
@example(-0.0)
@example([math.nan, math.inf, -math.inf, 2**64 + 1, -(2**70)])
@example({"é\"\n\x00 ": [[], {}, [[]], {"": {}}]})
def test_layout_and_leaves_equal_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2, sort_keys=True)


# finite floats, subnormals and zeros of both signs included
ROW_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
              | st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e-300, -1e300, 1e300]))
SCAN_ROWS = st.lists(st.tuples(ROW_FLOATS, ROW_FLOATS,
                               st.sampled_from(["ok", "pole", "resonant", "degenerate"])),
                     min_size=1, max_size=20)


@given(SCAN_ROWS)
@example([(0.0, -0.0, "ok"), (5e-324, 1e300, "pole"), (-1e-300, -1e300, "resonant"),
          (2.0, 1.5, "degenerate")])
def test_scan_rows_equal_json_text_of_the_row_objects(rows):
    objects = [{"omega1": w, "D2": d2, "flag": flag} for w, d2, flag in rows]
    assert "".join(_json_rows(rows)) == _json_text(objects) + "\n"
