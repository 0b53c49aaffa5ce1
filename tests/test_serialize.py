import gc
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrtori import cli
from lagrtori import serialize
from lagrtori.serialize import GAP, dump_rows, pieces, row_text, stable_dump, stable_dumps
from oracle import assert_same_text, reference_dumps, rows_dumps

ROWS = {"bs-count": "fibers", "enc-report": "rows"}  # the long list of a row-list report


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**200, max_value=2**200),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-09, 1e300, 1, 1.0, True]),
    st.text(),
)
payloads = st.recursive(
    scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=6), kids, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(payloads)
def test_stable_dumps_matches_json_bytes(payload):
    assert stable_dumps(payload) == reference_dumps(payload)


class _Pieces(list):
    """A text stream that keeps every written piece."""

    write = list.append


@settings(max_examples=200, deadline=None)
@given(payloads)
def test_stable_dump_writes_the_stable_dumps_text(payload):
    pieces = []
    stable_dump(payload, pieces.append)
    assert "".join(pieces) == stable_dumps(payload)


def test_stable_dump_spills_large_payloads_in_pieces():
    payload = {"rows": [{"base": [[i, 7], [1, i + 2]], "swap": [0, 1], "s": i / 7}
                        for i in range(5000)]}
    pieces = []
    stable_dump(payload, pieces.append)
    text = "".join(pieces)
    assert text == reference_dumps(payload)
    assert len(pieces) > 10
    assert max(map(len, pieces)) < len(text) // 10


def test_int_list_memo_keeps_equal_values_of_other_types_apart():
    payload = {"a": [[1, 0], [True, False], [1.0, 0.0], [1, -0.0], (1, 0)],
               "b": [1, 0], "c": {"d": [[1, 0]], "é": [1, 0]}}
    assert stable_dumps(payload) == reference_dumps(payload)


@pytest.mark.parametrize("payload", [{1: "a", -2: "b"}, {2.5: 1, -0.0: 2}, {None: 0},
                                     {True: 0}, {"x": {False: [1, 2]}}])
def test_non_string_keys_convert_as_in_json(payload):
    assert stable_dumps(payload) == reference_dumps(payload)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), [1.0, -float("inf")],
                                 {"x": [float("nan")]}])
def test_out_of_range_floats_raise_value_error(bad):
    with pytest.raises(ValueError):
        stable_dumps(bad)


@pytest.mark.parametrize("bad", [object(), [1, object()], {"x": {1, 2}},
                                 {(1, 2): 3}])
def test_unsupported_types_raise_type_error(bad):
    with pytest.raises(TypeError):
        stable_dumps(bad)


def test_circular_container_raises_value_error():
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError):
        stable_dumps({"a": loop})


def test_stable_dumps_leaves_no_reference_cycles():
    # a cycle would hold the written chunks until the cyclic collector runs
    payload = {"a": [[1, 2], [3, 4]], "b": [{"c": 1.5}], "d": "e"}
    gc.collect()
    stable_dumps(payload)
    assert gc.collect() == 0


def test_stable_dump_leaves_no_reference_cycles():
    payload = {"a": [[1, 2], [3, 4]], "b": [{"c": 1.5}], "d": "e"}
    gc.collect()
    stable_dump(payload, io.StringIO().write)
    assert gc.collect() == 0


def test_template_leaves_no_reference_cycles():
    gc.collect()
    envelope = pieces({"d": "e", "rows": GAP})
    head, tail = pieces({"b": [[1, 2]], "s": GAP}, None)
    dump_rows(envelope, [[head + row_text(1.5) + tail]], io.StringIO().write)
    del envelope, head, tail
    assert gc.collect() == 0


@pytest.mark.parametrize("argv", [
    ["bs-count", "--level", "40"],
    ["bs-count", "--level", "40", "--closed"],
    ["enc-report", "--grid", "40"],
    ["chekanov-scan", "--mu", "1,0", "--a-min", "0.3", "--a-max", "0.3",
     "--a-step", "0.1", "--delta-step", "0.5", "--quad-nodes", "24"],
])
def test_cli_payloads_reencode_to_identical_bytes(argv):
    out = io.StringIO()
    assert cli.main(argv, out=out) == cli.EXIT_OK
    payload = json.loads(out.getvalue())
    if argv[0] in ROWS:
        assert_same_text(out.getvalue(), rows_dumps(payload, "results", ROWS[argv[0]]) + "\n")
    else:
        assert stable_dumps(payload) + "\n" == out.getvalue()
        assert reference_dumps(payload) + "\n" == out.getvalue()


def test_cli_writes_a_large_report_in_bounded_pieces():
    # no string of the report's size is built, so heap peaks stay flat
    for argv in (["enc-report", "--grid", "100"], ["bs-count", "--level", "240"]):
        out = _Pieces()
        assert cli.main(argv, out=out) == cli.EXIT_OK
        text = "".join(out)
        assert len(text) > 400_000
        assert max(map(len, out)) <= 64 * serialize._PIECE
        assert_same_text(text, rows_dumps(json.loads(text), "results", ROWS[argv[0]]) + "\n")


keys = st.text(max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(keys, scalars, max_size=3),
       st.lists(st.tuples(payloads, scalars), max_size=3),
       st.lists(keys, min_size=2, max_size=2, unique=True),
       st.integers(0, 3))
def test_template_fills_to_the_stable_dumps_text(head, rows, names, cut):
    # a report whose long list holds rows of one shape with two values,
    # passed in two blocks with an empty one between them
    ka, kb = sorted(names)  # the gaps come in key order
    envelope = pieces({**head, "rows": GAP})
    row = pieces({ka: GAP, kb: [GAP, 1]}, None)
    texts = [row[0] + row_text(a) + row[1] + row_text(b) + row[2] for a, b in rows]
    written = []
    dump_rows(envelope, [texts[:cut], [], texts[cut:]], written.append)
    whole = {**head, "rows": [{ka: a, kb: [b, 1]} for a, b in rows]}
    assert "".join(written) == rows_dumps(whole, "rows")


@pytest.mark.parametrize("head", ["\x00", "\x00rows", "\\u0000rows"])
def test_template_head_strings_make_no_gap(head):
    envelope = pieces({"h": head, head: [head], "rows": GAP})
    row = pieces([GAP, 1], None)
    written = []
    dump_rows(envelope, [[row[0] + row_text(1.5) + row[1]]], written.append)
    assert len(envelope) == 2
    whole = {"h": head, head: [head], "rows": [[1.5, 1]]}
    assert "".join(written) == rows_dumps(whole, "rows")


@pytest.mark.parametrize("depth", [0, 3])
def test_template_list_gap_takes_the_indent_of_its_line(depth):
    # at depth 0 the gap is the whole payload, on the first line
    path = ["k"] * depth

    def nested(value):
        for key in path:
            value = {key: value}
        return value

    envelope = pieces(nested(GAP))
    head, tail = pieces({"a": GAP}, None)
    written = []
    dump_rows(envelope, [[head + row_text(v) + tail] for v in (1.5, {"b": [1, 2]})],
              written.append)
    assert "".join(written) == rows_dumps(nested([{"a": 1.5}, {"a": {"b": [1, 2]}}]), *path)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_template_text_rejects_out_of_range_floats(bad):
    with pytest.raises(ValueError):
        row_text(bad)
