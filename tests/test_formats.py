import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rkbudget
from rkbudget.formats import csv_text, json_text

finite_floats = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
cells = st.one_of(st.none(), st.booleans(), st.integers(), finite_floats)


@given(st.lists(st.lists(cells, min_size=1, max_size=6), max_size=5))
def test_csv_cells_render_as_specified_and_floats_read_back_bit_for_bit(rows):
    text = csv_text(["c"] * 6, rows)
    lines = text.split("\n")
    assert lines[0] == ",".join(["c"] * 6)
    assert lines[-1] == ""  # one trailing newline
    assert len(lines) == len(rows) + 2
    for line, row in zip(lines[1:], rows):
        for cell, value in zip(line.split(","), row, strict=True):
            if value is None:
                assert cell == ""
            elif isinstance(value, bool):
                assert cell == ("true" if value else "false")
            elif isinstance(value, int):
                assert cell == str(value)
            else:
                assert cell == "%.16e" % value
                assert float(cell).hex() == value.hex()  # hex keeps the sign of -0.0


def test_csv_special_cells():
    text = csv_text(("a", "b", "c", "d", "e"), [(-0.0, 5e-324, math.inf, math.nan, np.float64(0.1))])
    assert text == (
        "a,b,c,d,e\n"
        "-0.0000000000000000e+00,4.9406564584124654e-324,inf,nan,1.0000000000000001e-01\n"
    )
    assert csv_text(("x",), []) == "x\n"


def reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


json_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5))
json_payloads = st.recursive(
    json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(st.text(max_size=5), inner, max_size=4)),
    max_leaves=20,
)


def assert_read_back(value, back):
    if isinstance(value, float):
        if math.isfinite(value):
            assert isinstance(back, float) and back.hex() == value.hex()
        else:
            assert back is None
    elif isinstance(value, dict):
        assert set(back) == set(value)
        for key in value:
            assert_read_back(value[key], back[key])
    elif isinstance(value, (list, tuple)):
        assert isinstance(back, list) and len(back) == len(value)
        for v, b in zip(value, back):
            assert_read_back(v, b)
    else:
        assert type(back) is type(value) and back == value


@given(json_payloads, st.sampled_from([None, 2]), st.booleans())
def test_json_is_strict_and_reads_non_finite_floats_back_as_null(payload, indent, sort_keys):
    text = json_text(payload, indent=indent, sort_keys=sort_keys)
    assert_read_back(payload, json.loads(text, parse_constant=reject_constant))


def reference_finite_or_none(value):
    """The payload as a strict writer hands it to ``json.dumps``: non-finite
    floats as None, tuples as lists."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: reference_finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_finite_or_none(v) for v in value]
    return value


def reference_json(payload, indent, sort_keys):
    return json.dumps(reference_finite_or_none(payload), indent=indent, sort_keys=sort_keys, allow_nan=False)


special_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.0**-1022, 1.7976931348623157e308,
                                  math.nan, -math.nan, math.inf, -math.inf])
strings = st.one_of(st.text(max_size=6), st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600a'),
                                                 max_size=6))
exact_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), special_floats, strings)
exact_payloads = st.recursive(
    exact_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=5), st.lists(st.one_of(special_floats, st.floats()), max_size=5),
                            st.lists(inner, max_size=3).map(tuple), st.dictionaries(strings, inner, max_size=4)),
    max_leaves=25,
)


@given(exact_payloads, st.sampled_from([2, None]), st.booleans())
def test_json_text_writes_what_json_dumps_writes(payload, indent, sort_keys):
    assert json_text(payload, indent=indent, sort_keys=sort_keys) == reference_json(payload, indent, sort_keys)


@given(exact_payloads, st.sampled_from([object(), {1, 2}, b"x", np.int64(3), np.bool_(True), np.array([1.0])]),
       st.sampled_from([2, None]), st.booleans())
def test_json_text_rejects_unsupported_types_like_json_dumps(payload, junk, indent, sort_keys):
    for bad in ([payload, junk], {"k": junk}, junk):
        with pytest.raises(TypeError):
            reference_json(bad, indent, sort_keys)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json_text(bad, indent=indent, sort_keys=sort_keys)


# Lists of records that share one key order, as the table rows and sweep
# points are: json_text writes them from one template per list.
record_keys = st.text(st.sampled_from('%"\\\x00\x1f\x7f\n\u00e9\u2028\U0001f600as'), max_size=4)
record_values = st.one_of(special_floats, st.floats(), st.none(), st.booleans(), st.integers(), strings,
                          st.lists(st.one_of(special_floats, st.integers(), strings, st.none()), max_size=3))


@st.composite
def record_lists(draw):
    keys = draw(st.lists(record_keys, min_size=1, max_size=5, unique=True))
    rows = draw(st.lists(st.lists(record_values, min_size=len(keys), max_size=len(keys)), min_size=1, max_size=6))
    return [dict(zip(keys, row)) for row in rows]


@given(record_lists(), st.sampled_from([2, None]), st.booleans())
def test_json_text_writes_record_lists_as_json_dumps_does(records, indent, sort_keys):
    for payload in (records, {"curve": records}, [records, records[:1]]):
        assert json_text(payload, indent=indent, sort_keys=sort_keys) == reference_json(payload, indent, sort_keys)


@pytest.mark.parametrize("indent", [2, None])
@pytest.mark.parametrize("sort_keys", [True, False])
def test_json_text_rejects_an_unsupported_leaf_inside_a_record(indent, sort_keys):
    records = [{"a%s": 1.0, "b": [2]}, {"a%s": 3.0, "b": [object()]}]
    with pytest.raises(TypeError):
        reference_json(records, indent, sort_keys)
    with pytest.raises(TypeError, match="^Object of type object is not JSON serializable$"):
        json_text(records, indent=indent, sort_keys=sort_keys)


@pytest.mark.parametrize("indent", [2, None])
@pytest.mark.parametrize("payload", [{1: "a", 2.5: [], True: {}, None: 0}, {-0.0: 1}, {3: 1, 1: 2}])
def test_json_text_rejects_non_string_keys_json_dumps_writes(payload, indent):
    # every artifact key is a str; json.dumps would write these as strings
    reference_json(payload, indent, False)
    with pytest.raises(TypeError, match="^keys must be str, not "):
        json_text(payload, indent=indent, sort_keys=False)
    if len({type(k) for k in payload}) == 1:
        with pytest.raises(TypeError, match="^keys must be str, not "):
            json_text(payload, indent=indent)


@pytest.mark.parametrize("key, error", [(math.nan, ValueError), (math.inf, ValueError), ((1, 2), TypeError)])
def test_json_text_rejects_keys_json_dumps_rejects(key, error):
    with pytest.raises(error):
        reference_json({key: 1}, 2, False)
    with pytest.raises(TypeError, match=f"^keys must be str, not {type(key).__name__}$"):
        json_text({key: 1})


def test_json_layouts():
    payload = {"b": 1, "a": [1.5, math.nan, np.float64(-math.inf), np.float64(0.25)]}
    assert json_text(payload) == '{\n  "a": [\n    1.5,\n    null,\n    null,\n    0.25\n  ],\n  "b": 1\n}'
    assert json_text(payload, indent=None, sort_keys=False) == '{"b": 1, "a": [1.5, null, null, 0.25]}'
    assert json_text([-math.inf, 1e300, math.inf, -math.nan], indent=None) == "[null, 1e+300, null, null]"


@pytest.mark.parametrize("needle", ["json.dumps", ".16e"])
def test_only_the_formats_module_writes_artifact_formats(needle):
    package = Path(rkbudget.__file__).parent
    offenders = [p.name for p in sorted(package.glob("*.py")) if p.name != "formats.py" and needle in p.read_text()]
    assert offenders == []
