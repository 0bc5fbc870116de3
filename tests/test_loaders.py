"""The column-at-a-time CSV loaders against the per-row loaders.

Each loader parses whole columns and checks them with masks; the first row
that fails a check is re-checked on its own to raise that row's error.  These
tests hold every loader to its per-row oracle in tests/oracles.py, on small
generated files both valid and corrupted: the same arrays and labels, or the
same exception type and message.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudcut import (
    AffinityTable,
    Assignment,
    CloudModel,
    ParseError,
    PricingMatrix,
    SocialGraph,
)
from cloudcut.cloud import load_affinities, load_profiles, load_regions
from cloudcut.graph import load_graph
from oracles import (
    naive_graph_arrays,
    naive_load_affinities,
    naive_load_graph,
    naive_load_profiles,
    naive_read_assignment,
)

USERS = ("a", "b", "c", "d")
CLOUDS = ("c0", "c1")
REGIONS = ("r0", "r1", "r2")


def labels(good, bad):
    """(good labels, some with stray whitespace; bad labels)."""
    good = good + (" " + good[0], good[1] + " ")
    return st.sampled_from(good), st.sampled_from(bad)


# bad labels are empty, unknown, or hold a comma or a quote
USER, BAD_USER = labels(USERS, ("", "zz ", "a,b", 'q"t'))
REGION, BAD_REGION = labels(REGIONS, ("", "rX"))
CLOUD, BAD_CLOUD = labels(CLOUDS, ("", "cX"))
NUMBER = st.sampled_from(("1.0", "0", "2.5", " 3 ", "0.125", "7", "-0.0", "1_0"))
BAD_NUMBER = st.sampled_from(("-1", "inf", "-inf", "nan", "1e400", "x", ""))


def rows(*fields):
    """Rows of good fields, or now and then a row with one bad field, a row
    cut short or padded, or a blank row.  fields: (good, bad) per column."""
    good = st.tuples(*(g for g, _ in fields)).map(list)

    def spoil(t):
        row, i, bad = t
        return row[:i] + [bad[i]] + row[i + 1:]

    one_bad = st.tuples(good, st.integers(0, len(fields) - 1),
                        st.tuples(*(b for _, b in fields))).map(spoil)
    cut = st.tuples(good, st.integers(0, 5)).map(lambda t: (t[0] + ["1", "x", "2"])[:t[1]])
    return st.one_of(good, good, good, one_bad, one_bad, cut)


def graph():
    return SocialGraph.from_records([("a", "b", 1.0), ("b", "c", 2.0), ("d", "a", 0.5)])


def model():
    return CloudModel(CLOUDS, REGIONS, [0, 1, 1], PricingMatrix.uniform(2),
                      AffinityTable(np.zeros((4, 3)), np.zeros((4, 3))),
                      np.ones(4), np.ones(4))


@st.composite
def csv_text(draw, rows):
    """CSV text of the rows; fields are sometimes quoted, lines end in LF or
    CRLF, and the last line may lack its terminator."""
    lines = []
    for row in rows:
        fields = []
        for field in row:
            if '"' in field or "," in field or draw(st.booleans()):
                field = '"' + field.replace('"', '""') + '"'
            fields.append(field)
        lines.append(",".join(fields) + draw(st.sampled_from(["\n", "\r\n"])))
    text = "".join(lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def outcome(load, *args, **kwargs):
    """('ok', value) or ('error', exception type, message)."""
    try:
        return "ok", load(*args, **kwargs)
    except ValueError as exc:
        return "error", type(exc), str(exc)


def same_arrays(a, b):
    """Equal shape, dtype and bytes, so -0.0 and 0.0 differ."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same(got, want, arrays):
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1:] == want[1:]
        return
    for g, w in zip(arrays(got[1]), arrays(want[1]), strict=True):
        if isinstance(g, tuple):
            assert g == w
        else:
            assert same_arrays(g, w)


def graph_arrays(g):
    return (g.labels, *g.edge_arrays(), *g.friend_csr(), *g.connection_arrays())


EDGE_ROWS = rows((USER, BAD_USER), (USER, BAD_USER), (NUMBER, BAD_NUMBER))
# in-memory records may hold values that are not strings
RECORD_VALUES = st.sampled_from([None, 3, 2.5, float("nan")])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), lines=st.lists(EDGE_ROWS, max_size=12),
       as_records=st.booleans())
def test_load_graph_matches_the_per_row_loader(tmp_path_factory, data, lines, as_records):
    if as_records:
        source = [tuple(data.draw(st.one_of(st.just(f), RECORD_VALUES)) for f in row)
                  for row in lines]
    else:
        source = tmp_path_factory.mktemp("edges") / "edges.csv"
        source.write_text(data.draw(csv_text(lines)), encoding="utf-8", newline="")
    assert_same(outcome(load_graph, source), outcome(naive_load_graph, source),
                graph_arrays)


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       lines=st.lists(rows((USER, BAD_USER), (REGION, BAD_REGION), (NUMBER, BAD_NUMBER),
                           (NUMBER, BAD_NUMBER)), max_size=12),
       ignore=st.booleans())
def test_load_affinities_matches_the_per_row_loader(tmp_path_factory, data, lines, ignore):
    path = tmp_path_factory.mktemp("aff") / "affinities.csv"
    path.write_text(data.draw(csv_text(lines)), encoding="utf-8", newline="")
    g = graph()
    assert_same(outcome(load_affinities, path, g, REGIONS, ignore_unknown_users=ignore),
                outcome(naive_load_affinities, path, g, REGIONS, ignore_unknown_users=ignore),
                lambda table: (table.download, table.upload))


PROFILE_ROWS = st.one_of(
    rows((USER, BAD_USER), (NUMBER, BAD_NUMBER), (NUMBER, BAD_NUMBER)),
    rows((USER, BAD_USER), (NUMBER, BAD_NUMBER), (NUMBER, BAD_NUMBER), (REGION, BAD_REGION)))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), lines=st.lists(PROFILE_ROWS, max_size=12),
       ignore=st.booleans(), regions=st.sampled_from([REGIONS, None]))
def test_load_profiles_matches_the_per_row_loader(tmp_path_factory, data, lines, ignore,
                                                  regions):
    path = tmp_path_factory.mktemp("prof") / "profiles.csv"
    path.write_text(data.draw(csv_text(lines)), encoding="utf-8", newline="")
    g = graph()
    assert_same(outcome(load_profiles, path, g, regions, ignore_unknown_users=ignore),
                outcome(naive_load_profiles, path, g, regions, ignore_unknown_users=ignore),
                lambda arrays: arrays)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), order=st.permutations(USERS),
       extra=st.lists(st.tuples(st.integers(0, 4),
                                rows((USER, BAD_USER), (CLOUD, BAD_CLOUD))), max_size=3))
def test_read_assignment_matches_the_per_row_loader(tmp_path_factory, data, order, extra):
    # a valid assignment, then a few rows put in anywhere
    lines = [[u, data.draw(CLOUD)] for u in order]
    for at, row in extra:
        lines.insert(at, row)
    path = tmp_path_factory.mktemp("asg") / "assignment.csv"
    path.write_text(data.draw(csv_text(lines)), encoding="utf-8", newline="")
    g, m = graph(), model()
    assert_same(outcome(Assignment.from_csv, path, g, m),
                outcome(naive_read_assignment, path, g, m),
                lambda a: (a.host,))


@pytest.mark.parametrize("bad_row, message", [
    ("u7,u8", "expected 3 fields, got 2"),
    ("u7,u8,heavy", "bad weight 'heavy'"),
    ("u7,u7,1.0", "self-loop on user 'u7'"),
])
def test_bad_row_deep_in_a_large_file_is_reported_by_its_line(tmp_path, bad_row, message):
    lines = [f"u{i % 5000},u{(i * 7 + 1) % 5000},{i % 9 + 0.5}" for i in range(60_000)]
    lines[49_999] = bad_row
    path = tmp_path / "edges.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_graph(path)
    assert str(info.value) == f"line 50000: {message}"
    assert info.value.line == 50_000


def test_graph_arrays_match_the_loop_oracle_on_repeated_float_pairs():
    rng = np.random.default_rng(11)
    n = 40
    src = rng.integers(0, n, size=3000)
    dst = (src + rng.integers(1, n, size=3000)) % n  # no self-loops
    weight = rng.random(3000) * 10.0 ** rng.integers(-3, 4, size=3000)
    g = SocialGraph([f"u{i}" for i in range(n)], src, dst, weight)
    want = naive_graph_arrays(n, src.tolist(), dst.tolist(), weight.tolist())
    s, d, w = g.edge_arrays()
    off, col, wout, win = g.friend_csr()
    ca, cb, cw = g.connection_arrays()
    got = {"src": s, "dst": d, "weight": w, "friend_offsets": off, "friend_col": col,
           "friend_out": wout, "friend_in": win, "conn_a": ca, "conn_b": cb,
           "conn_weight": cw}
    for key, arr in got.items():
        assert same_arrays(arr, np.array(want[key], dtype=arr.dtype)), key
        assert arr.dtype == (np.float64 if isinstance(want[key][0], float) else np.int64)
    assert len(want["src"]) < 3000  # pairs did repeat


@pytest.mark.parametrize("load", [
    load_graph,
    lambda p: load_affinities(p, graph(), REGIONS),
    lambda p: load_profiles(p, graph(), REGIONS),
    lambda p: Assignment.from_csv(p, graph(), model()),
    load_regions,
    PricingMatrix.from_csv,
], ids=["edges", "affinities", "profiles", "assignment", "regions", "pricing"])
def test_text_that_is_not_utf8_raises_a_parse_error_naming_its_line(tmp_path, load):
    path = tmp_path / "table.csv"
    path.write_bytes(b"a,b,1.0\nb,c,2.0\n\xff\xfe,c,2.0\n")
    with pytest.raises(ParseError, match="^line 3: text is not valid UTF-8$"):
        load(path)


def test_field_longer_than_csv_allows_raises_a_parse_error(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("a,b,1.0\nb,c," + "9" * 200_000 + "\n", encoding="utf-8")
    with pytest.raises(ParseError, match="^line 2: malformed CSV: field larger than"):
        load_graph(path)
