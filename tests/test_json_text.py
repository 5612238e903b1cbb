"""The CLI's JSON writer against json.dumps(indent=2, sort_keys=True)."""

import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from birkhoff.cli import _json_text  # noqa: E402

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
