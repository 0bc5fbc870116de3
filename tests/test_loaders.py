"""The column-at-a-time CSV loaders against the per-row loaders.

Each loader parses whole columns and checks them with masks; the first row
that fails a check is re-checked on its own to raise that row's error.  These
tests hold every loader to its per-row oracle in tests/oracles.py, on small
generated files both valid and corrupted: the same arrays and labels, or the
same exception type and message.  They also hold the byte path of the table
reader to its csv.reader path on the same text, feed every file loader
arbitrary bytes, and read back what the table writer writes.
"""

import contextlib
import csv
import io
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudcut import (
    AffinityTable,
    Assignment,
    CloudModel,
    ParseError,
    PricingMatrix,
    SocialGraph,
    ValidationError,
)
from cloudcut import _table
from cloudcut import cloud as cloud_module
from cloudcut import graph as graph_module
from cloudcut._table import ByteTable, RowTable, read_table, write_table
from cloudcut.cloud import load_affinities, load_profiles, load_regions
from cloudcut.graph import load_graph
from oracles import (
    naive_graph_arrays,
    naive_load_affinities,
    naive_load_graph,
    naive_load_pricing,
    naive_load_profiles,
    naive_load_regions,
    naive_read_assignment,
    random_model,
    traced_peak,
)

USERS = ("a", "b", "c", "d")
CLOUDS = ("c0", "c1")
REGIONS = ("r0", "r1", "r2")


# characters str.strip removes, ASCII and not
SPACE = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
         "\u00a0", "\u2003", "\u3000", "\x85")


def labels(good, bad):
    """(good labels, some with stray whitespace; bad labels)."""
    space = st.sampled_from(("",) + SPACE)
    spaced = st.tuples(space, st.sampled_from(good), space).map("".join)
    return st.one_of(st.sampled_from(good), spaced), st.sampled_from(bad)


# bad labels are empty, unknown, or hold a comma, a quote, a newline or a
# NUL; some are longer than a word, or than a page
LONG = ("long-label-1", "long-label-2", "x" * 100_000)
USER, BAD_USER = labels(USERS, ("", "zz ", "a,b", 'q"t', "n\nl", "n\x00l", "\u00e9") + LONG)
REGION, BAD_REGION = labels(REGIONS, ("", "rX"))
CLOUD, BAD_CLOUD = labels(CLOUDS, ("", "cX"))
NUMBER = st.sampled_from(("1.0", "0", "2.5", " 3 ", "0.125", "7", "-0.0", "1_0",
                          "\u00a05\u3000", "0.17424576215237397", "1" * 40))
# the last one is longer than csv.field_size_limit()
BAD_NUMBER = st.sampled_from(("-1", "inf", "-inf", "nan", "1e400", "x", "", "9" * 200_000))


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
    return load_graph([("a", "b", 1.0), ("b", "c", 2.0), ("d", "a", 0.5)])


# a second graph, loaded from records, with labels longer than a word and
# exactly a word long, not ASCII, holding a comma, a quote or a newline, and
# two that differ only by a NUL.  A file without the labels that need quotes
# or hold a NUL takes the byte path, where labels past a word are found by
# a hash and checked word by word
PLAIN_ODD_USERS = ("long-label-user-1", "long-label-user-2", "8 bytes!", "ünïcødé", "用户",
                   "a")
ODD_USERS = PLAIN_ODD_USERS + ("a,b", 'q"t', "n\nl", "a\x00")
PLAIN_ODD_BAD_USERS = ("", "long-label-user-3", "8 bytes?", "ü", "x" * 100_000)


def odd_users():
    """(good labels; (good labels, some with stray whitespace; bad labels))
    of the second graph's users: a file draws either only labels that leave
    it on the byte path, or any of them."""
    return st.sampled_from([
        (PLAIN_ODD_USERS, labels(PLAIN_ODD_USERS, PLAIN_ODD_BAD_USERS)),
        (ODD_USERS, labels(ODD_USERS, PLAIN_ODD_BAD_USERS + ("a\x00\x00", "c,d")))])


def odd_graph():
    return load_graph([(u, v, 1.0) for u, v in zip(ODD_USERS, ODD_USERS[1:] + ODD_USERS[:1])])


def model():
    return CloudModel(CLOUDS, REGIONS, [0, 1, 1], PricingMatrix.uniform(2),
                      AffinityTable(np.zeros((4, 3)), np.zeros((4, 3))),
                      np.ones(4), np.ones(4))


@st.composite
def csv_text(draw, rows):
    """CSV text of the rows.  Fields that need it are quoted, and in some
    files others are too; lines end in LF, or in some files in LF, CRLF or
    CR; the last line may lack its terminator."""
    quote_any = draw(st.booleans())
    endings = draw(st.sampled_from([["\n"], ["\n", "\r\n", "\r"]]))
    lines = []
    for row in rows:
        fields = []
        for field in row:
            if any(c in field for c in '",\n\r') or (quote_any and draw(st.booleans())):
                field = '"' + field.replace('"', '""') + '"'
            fields.append(field)
        lines.append(",".join(fields) + draw(st.sampled_from(endings)))
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
    check_load_affinities(tmp_path_factory, data, lines, ignore, graph())


@settings(max_examples=150, deadline=None)
@given(data=st.data(), users=odd_users(), ignore=st.booleans())
def test_load_affinities_matches_the_per_row_loader_on_unusual_labels(tmp_path_factory, data,
                                                                      users, ignore):
    lines = data.draw(st.lists(rows(users[1], (REGION, BAD_REGION), (NUMBER, BAD_NUMBER),
                                    (NUMBER, BAD_NUMBER)), max_size=12))
    check_load_affinities(tmp_path_factory, data, lines, ignore, odd_graph())


def check_load_affinities(tmp_path_factory, data, lines, ignore, g):
    path = tmp_path_factory.mktemp("aff") / "affinities.csv"
    path.write_text(data.draw(csv_text(lines)), encoding="utf-8", newline="")
    assert_same(outcome(load_affinities, path, g, REGIONS, ignore_unknown_users=ignore),
                outcome(naive_load_affinities, path, g, REGIONS, ignore_unknown_users=ignore),
                lambda table: (table.download, table.upload))


def test_load_profiles_computes_defaults_only_for_an_unlisted_user(tmp_path, monkeypatch):
    # the defaults take a pass over the friend CSR, which a file that lists
    # every user does not need
    calls = []
    defaults = cloud_module.default_profiles
    monkeypatch.setattr(cloud_module, "default_profiles",
                        lambda g: calls.append(g) or defaults(g))
    path = tmp_path / "profiles.csv"
    path.write_text("a,1.5,0.5\nb,2,1\nc,0,0\nd,3,0.25\n", encoding="utf-8")
    vol, blend, _ = load_profiles(path, graph(), REGIONS)
    assert (vol.tolist(), blend.tolist(), calls) == ([1.5, 2.0, 0.0, 3.0], [0.5, 1.0, 0.0, 0.25], [])
    path.write_text("a,1.5,0.5\nb,2,1\n", encoding="utf-8")
    vol, blend, _ = load_profiles(path, graph(), REGIONS)
    assert (vol.tolist(), blend.tolist(), len(calls)) == ([1.5, 2.0, 0.0, 0.5],
                                                          [0.5, 1.0, 1.0, 1.0], 1)


def profile_rows(users):
    return st.one_of(
        rows(users, (NUMBER, BAD_NUMBER), (NUMBER, BAD_NUMBER)),
        rows(users, (NUMBER, BAD_NUMBER), (NUMBER, BAD_NUMBER), (REGION, BAD_REGION)))


PROFILE_ROWS = profile_rows((USER, BAD_USER))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), lines=st.lists(PROFILE_ROWS, max_size=12),
       ignore=st.booleans(), regions=st.sampled_from([REGIONS, None]))
def test_load_profiles_matches_the_per_row_loader(tmp_path_factory, data, lines, ignore,
                                                  regions):
    check_load_profiles(tmp_path_factory, data, lines, ignore, regions, graph())


@settings(max_examples=150, deadline=None)
@given(data=st.data(), users=odd_users(), ignore=st.booleans(),
       regions=st.sampled_from([REGIONS, None]))
def test_load_profiles_matches_the_per_row_loader_on_unusual_labels(tmp_path_factory, data,
                                                                    users, ignore, regions):
    lines = data.draw(st.lists(profile_rows(users[1]), max_size=12))
    check_load_profiles(tmp_path_factory, data, lines, ignore, regions, odd_graph())


def check_load_profiles(tmp_path_factory, data, lines, ignore, regions, g):
    path = tmp_path_factory.mktemp("prof") / "profiles.csv"
    path.write_text(data.draw(csv_text(lines)), encoding="utf-8", newline="")
    assert_same(outcome(load_profiles, path, g, regions, ignore_unknown_users=ignore),
                outcome(naive_load_profiles, path, g, regions, ignore_unknown_users=ignore),
                lambda arrays: arrays)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), order=st.permutations(USERS),
       extra=st.lists(st.tuples(st.integers(0, 4),
                                rows((USER, BAD_USER), (CLOUD, BAD_CLOUD))), max_size=3))
def test_read_assignment_matches_the_per_row_loader(tmp_path_factory, data, order, extra):
    check_read_assignment(tmp_path_factory, data, order, extra, graph())


@settings(max_examples=150, deadline=None)
@given(data=st.data(), users=odd_users())
def test_read_assignment_matches_the_per_row_loader_on_unusual_labels(tmp_path_factory, data,
                                                                      users):
    # rows for only the labels that keep the file on the byte path leave
    # users out, and the loader names the first of them
    order = data.draw(st.permutations(users[0]))
    extra = data.draw(st.lists(st.tuples(st.integers(0, len(order)),
                                         rows(users[1], (CLOUD, BAD_CLOUD))), max_size=3))
    check_read_assignment(tmp_path_factory, data, order, extra, odd_graph())


def check_read_assignment(tmp_path_factory, data, order, extra, g):
    # a valid assignment, then a few rows put in anywhere
    lines = [[u, data.draw(CLOUD)] for u in order]
    for at, row in extra:
        lines.insert(at, row)
    path = tmp_path_factory.mktemp("asg") / "assignment.csv"
    path.write_text(data.draw(csv_text(lines)), encoding="utf-8", newline="")
    m = model()
    assert_same(outcome(Assignment.from_csv, path, g, m),
                outcome(naive_read_assignment, path, g, m),
                lambda a: (a.host,))


# region labels repeat now and then, and some are longer than a word;
# blank ones strip to nothing
REGION_NAME, BLANK_REGION = labels(("r0", "r1", "r2", "r3", "r4", "long-region-0",
                                    "long-region-1"), ("", " ", "\u3000"))
CLOUD_NAME, BLANK_CLOUD = labels(("c0", "c1", "c2"), ("", "\t"))
NARROW_REGION_ROWS = rows((REGION_NAME, BLANK_REGION), (CLOUD_NAME, BLANK_CLOUD))
WIDE_REGION_ROWS = rows((REGION_NAME, BLANK_REGION), (CLOUD_NAME, BLANK_CLOUD),
                        (NUMBER, BAD_NUMBER), (NUMBER, BAD_NUMBER))
REGION_ROWS = st.one_of(NARROW_REGION_ROWS, WIDE_REGION_ROWS)
# files of rows without coordinates, rows with them, or both
REGION_LINES = st.one_of(*(st.lists(rows, max_size=8)
                           for rows in (NARROW_REGION_ROWS, WIDE_REGION_ROWS, REGION_ROWS)))


def region_arrays(regions):
    clouds, labels, region_cloud, xy = regions
    return clouds, labels, region_cloud, np.zeros((0, 0)) if xy is None else xy


@settings(max_examples=150, deadline=None)
@given(data=st.data(), lines=REGION_LINES)
def test_load_regions_matches_the_per_row_loader(tmp_path_factory, data, lines):
    path = tmp_path_factory.mktemp("regions") / "regions.csv"
    path.write_text(data.draw(csv_text(lines)), encoding="utf-8", newline="")
    assert_same(outcome(load_regions, path), outcome(naive_load_regions, path), region_arrays)


CLOUD_NAMES = ("c0", "c1", "c2")
# junk, one that csv quotes, and numbers that are not finite and non-negative
BAD_PRICE = st.sampled_from(("x", "", "1,5", "-1", "inf", "nan", "1e400"))


@st.composite
def pricing_lines(draw):
    """The rows of a pricing matrix: a header of up to three cloud labels,
    now and then with a repeat, and a row per header cloud, with now and then
    a row too few or too many, a row label out of header order, bad prices
    (in some files half of them), or a row cut short or padded; now and then
    cut to a few rows."""
    pad = st.sampled_from(("",) + SPACE)
    n = draw(st.sampled_from((1, 2, 3, 3, 0)))
    one_in = draw(st.sampled_from((8, 8, 8, 2)))  # a price is bad one time in this many
    header = list(draw(st.permutations(CLOUD_NAMES)))[:n]
    if n and draw(st.integers(0, 4)) == 0:
        header[draw(st.integers(0, n - 1))] = draw(st.sampled_from(CLOUD_NAMES))
    lines = [["cloud", *(draw(pad) + label for label in header)]]
    for i in range(max(n + draw(st.sampled_from((0,) * 8 + (-1, 1))), 0)):
        label = header[i] if i < n and draw(st.integers(0, 4)) else draw(
            st.sampled_from(CLOUD_NAMES))
        line = [label + draw(pad)] + [
            draw(NUMBER if draw(st.integers(1, one_in)) > 1 else BAD_PRICE) for _ in range(n)]
        if draw(st.integers(0, 5)) == 0:
            line = (line + ["1", "x"])[:draw(st.integers(0, n + 3))]
        lines.append(line)
    if draw(st.integers(0, 9)) == 0:
        lines = lines[:draw(st.integers(0, len(lines)))]
    return lines


def pricing_arrays(pricing):
    labels, matrix = pricing
    return labels, matrix.matrix


@settings(max_examples=200, deadline=None)
@given(data=st.data(), lines=pricing_lines())
def test_load_pricing_matches_the_per_row_loader(tmp_path_factory, data, lines):
    path = tmp_path_factory.mktemp("pricing") / "pricing.csv"
    path.write_text(data.draw(csv_text(lines)), encoding="utf-8", newline="")
    assert_same(outcome(PricingMatrix.from_csv, path), outcome(naive_load_pricing, path),
                pricing_arrays)


@pytest.mark.parametrize("load, naive, arrays, text", [
    (load_regions, naive_load_regions, region_arrays, ""),
    (load_regions, naive_load_regions, region_arrays, "r0,c0\n r0 ,c1\n"),
    (load_regions, naive_load_regions, region_arrays, "r0,c0,1,2\nr1, ,nan,x\n"),
    (load_regions, naive_load_regions, region_arrays, "r0,c0,1,2\nr1,c1,-1,1e400\n"),
    (load_regions, naive_load_regions, region_arrays, "r0,c0,1,2\nr1,c0\n"),
    # a good price, then two bad ones: the first bad one is named
    (PricingMatrix.from_csv, naive_load_pricing, pricing_arrays,
     "cloud,c0,c1,c2\nc0,0,1,2\nc1,1,x,\nc2,2,1,0\n"),
    (PricingMatrix.from_csv, naive_load_pricing, pricing_arrays,
     "cloud,c0,c1\nc0,0,nan\nc1,1,x\n"),
    (PricingMatrix.from_csv, naive_load_pricing, pricing_arrays,
     "cloud,c0,c1\nc1,0,1\nc0,1,0\n"),
], ids=["regions-empty", "regions-duplicate", "regions-blank-cloud", "regions-infinite",
        "regions-partial", "pricing-two-bad-cells", "pricing-nan", "pricing-order"])
def test_small_loaders_match_the_per_row_loaders_on_chosen_files(tmp_path, load, naive,
                                                                  arrays, text):
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8", newline="")
    want = outcome(naive, path)
    assert want[0] == "error"
    assert_same(outcome(load, path), want, arrays)


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


def assert_graph_arrays_match_the_loop_oracle(n, src, dst, weight):
    """Build the graph of these records and hold every array it derives,
    values and dtype, to naive_graph_arrays; returns the oracle's arrays."""
    g = SocialGraph([f"u{i}" for i in range(n)], src, dst, weight)
    want = naive_graph_arrays(n, list(src), list(dst), list(weight))
    s, d, w = g.edge_arrays()
    off, col, wout, win = g.friend_csr()
    ca, cb, w_ab, w_ba = g.connection_arrays()
    got = {"src": s, "dst": d, "weight": w, "friend_offsets": off, "friend_col": col,
           "friend_out": wout, "friend_in": win, "friend_is_edge": g.edge_mask(),
           "conn_a": ca, "conn_b": cb, "conn_ab": w_ab, "conn_ba": w_ba}
    floats = {"weight", "friend_out", "friend_in", "conn_ab", "conn_ba"}
    for key, arr in got.items():
        dtype = bool if key == "friend_is_edge" else np.float64 if key in floats else np.int64
        assert arr.dtype == dtype, key
        assert same_arrays(arr, np.array(want[key], dtype=arr.dtype)), key
    return want


def test_graph_arrays_match_the_loop_oracle_on_repeated_float_pairs():
    rng = np.random.default_rng(11)
    n = 40
    src = rng.integers(0, n, size=3000)
    dst = (src + rng.integers(1, n, size=3000)) % n  # no self-loops
    weight = rng.random(3000) * 10.0 ** rng.integers(-3, 4, size=3000)
    want = assert_graph_arrays_match_the_loop_oracle(n, src.tolist(), dst.tolist(),
                                                     weight.tolist())
    assert len(want["src"]) < 3000  # pairs did repeat


# weights whose sum depends on the order they are added in: 0.1 + 0.2 + 0.3
# differs from 0.3 + 0.2 + 0.1, and 1e16 absorbs a 1.0 added after it
ORDERED_WEIGHT = st.sampled_from((0.0, 0.1, 0.2, 0.3, 1.0, 1e16))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(6, 12), data=st.data())
def test_a_graph_too_wide_for_one_sort_word_is_built_alike_in_buckets(n, data):
    # records draw their pairs, either way round, from a few: keys repeat
    # within a direction and tie across the two
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
        lambda p: (p[0], (p[0] + p[1]) % n))
    pairs = data.draw(st.lists(pair, min_size=1, max_size=4))
    records = data.draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans(),
                                           ORDERED_WEIGHT), max_size=16))
    src = [d if flip else s for (s, d), flip, _ in records]
    dst = [s if flip else d for (s, d), flip, _ in records]
    weight = [w for _, _, w in records]
    # a word of 6 bits: the 2 * 16 records' indices take up to 5 of them, so
    # the keys of 6 users or more (36 and up) span several buckets; a 64-bit
    # word needs them only for graphs far larger than a test's
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph_module, "_WORD_BITS", 6)
        assert_graph_arrays_match_the_loop_oracle(n, src, dst, weight)


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


def spoiled_bytes(text):
    """UTF-8 text with bytes that are not UTF-8 put in, now and then."""
    bad = st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xe2\x82"])
    return st.tuples(st.integers(0, len(text)), bad, st.booleans()).map(
        lambda t: text[:t[0]].encode() + t[1] + text[t[0]:].encode() if t[2] else text.encode())


AFFINITY_ROWS = rows((USER, BAD_USER), (REGION, BAD_REGION), (NUMBER, BAD_NUMBER),
                     (NUMBER, BAD_NUMBER))
ASSIGNMENT_ROWS = rows((USER, BAD_USER), (CLOUD, BAD_CLOUD))
# each loader's lines, loader, per-row loader, and the arrays it returns
LOADERS = {
    "edges": (st.lists(EDGE_ROWS, max_size=8), load_graph, naive_load_graph, graph_arrays),
    "affinities": (st.lists(AFFINITY_ROWS, max_size=8),
                   lambda p: load_affinities(p, graph(), REGIONS),
                   lambda p: naive_load_affinities(p, graph(), REGIONS),
                   lambda table: (table.download, table.upload)),
    "profiles": (st.lists(PROFILE_ROWS, max_size=8), lambda p: load_profiles(p, graph(), REGIONS),
                 lambda p: naive_load_profiles(p, graph(), REGIONS), lambda arrays: arrays),
    "assignment": (st.lists(ASSIGNMENT_ROWS, max_size=8),
                   lambda p: Assignment.from_csv(p, graph(), model()),
                   lambda p: naive_read_assignment(p, graph(), model()), lambda a: (a.host,)),
    "regions": (REGION_LINES, load_regions, naive_load_regions, region_arrays),
    "pricing": (pricing_lines(), PricingMatrix.from_csv, naive_load_pricing, pricing_arrays),
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_loaders_match_the_per_row_loaders_on_text_that_may_not_be_utf8(tmp_path_factory,
                                                                        kind, data):
    lines, load, naive, arrays = LOADERS[kind]
    text = data.draw(csv_text(data.draw(lines)))
    path = tmp_path_factory.mktemp(kind) / "table.csv"
    path.write_bytes(data.draw(spoiled_bytes(text)))
    assert_same(outcome(load, path), outcome(naive, path), arrays)


# text with no quote, CR or NUL, so that read_table takes the byte path
PLAIN_TEXT = st.lists(st.sampled_from(
    list("ab,,\n\n 1.e-+_x") + list(SPACE) + ["é", "١", "inf", "nan", "0x1", "long-label-",
                                             "u12345678", "用户", "ア", "†", "\u200b"]),
    max_size=40).map("".join)


def table_rows(table):
    return [table.row(i) for i in range(table.n_rows)]


def same_columns(got, want, k):
    """Assert that two tables give field k of each row that has it alike."""
    rows = np.flatnonzero(want.widths > k)
    assert same_arrays(got.intern((k,), rows)[0], want.intern((k,), rows)[0])
    assert got.intern((k,), rows)[1] == want.intern((k,), rows)[1]
    for a, b in zip(got.floats((k,), rows), want.floats((k,), rows), strict=True):
        assert same_arrays(a, b)


# (fields a ByteTable interns at a time, labels a LabelTable has room for at
# first): the defaults, and sizes of 1 to 3, so that labels are first seen in
# later blocks and the table grows mid-column
INTERN_SIZES = [None, (1, 1), (2, 3), (3, 2)]


@contextlib.contextmanager
def interned_in(sizes):
    """Intern with the block and first room of sizes, or the defaults for None."""
    with pytest.MonkeyPatch.context() as patch:
        if sizes:
            patch.setattr(_table, "_LABELS", sizes[0])
            patch.setattr(_table, "_ROOM", sizes[1])
        yield


@pytest.mark.parametrize("sizes", INTERN_SIZES)
@settings(max_examples=300, deadline=None)
@given(text=PLAIN_TEXT)
def test_the_byte_path_reads_text_as_csv_reader_does(tmp_path_factory, text, sizes):
    path = tmp_path_factory.mktemp("plain") / "table.csv"
    path.write_bytes(text.encode())
    with interned_in(sizes):
        check_the_byte_path(path, text)


def check_the_byte_path(path, text):
    got = read_table(path)
    want = RowTable(csv.reader(io.StringIO(text, newline="")))
    assert isinstance(got, ByteTable)
    assert same_arrays(got.widths, want.widths)
    assert table_rows(got) == table_rows(want)
    for allowed in ((0,), (1,), (2,), (1, 2), (3, 4)):
        assert got.prefix(*allowed) == want.prefix(*allowed)
    for k in range(int(want.widths.max(initial=0))):
        same_columns(got, want, k)
    pairs = np.flatnonzero(want.widths >= 2)
    for a, b in zip(got.intern((0, 1), pairs), want.intern((0, 1), pairs), strict=True):
        assert same_arrays(a, b) if isinstance(a, np.ndarray) else a == b
    # several fields at once: row j of each array is field ks[j]
    values, bad = got.floats((1, 0), pairs)
    assert values.flags.c_contiguous and bad.flags.c_contiguous
    for j, k in enumerate((1, 0)):
        (one,), (one_bad,) = want.floats((k,), pairs)
        assert same_arrays(values[j], one) and same_arrays(bad[j], one_bad)


@settings(max_examples=150, deadline=None)
@given(text=PLAIN_TEXT)
@example(text="")
@example(text="a,1.5\n\nbc,,2\nd,3")  # a blank line, and no final newline
def test_a_table_split_in_blocks_of_any_size_reads_as_csv_reader_does(text):
    # a table splits its bytes a block at a time; blocks of a few bytes put
    # separators on each side of every block boundary
    want = RowTable(csv.reader(io.StringIO(text, newline="")))
    for split in (1, 2, 3, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_table, "_SPLIT", split)
            got = ByteTable(text.encode())
        assert same_arrays(got.widths, want.widths)
        assert table_rows(got) == table_rows(want)
        for k in range(int(want.widths.max(initial=0))):
            same_columns(got, want, k)


@pytest.mark.parametrize("sizes", INTERN_SIZES)
@settings(max_examples=150, deadline=None)
@given(text=PLAIN_TEXT)
def test_int32_and_int64_spans_read_a_table_alike(text, sizes):
    with interned_in(sizes):
        check_int32_and_int64_spans(text)


def check_int32_and_int64_spans(text):
    # a table takes int64 spans only past 2 GiB; a lowered limit sends this
    # one down that path
    narrow = ByteTable(text.encode())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_table, "_INT32_SPANS", 0)
        wide = ByteTable(text.encode())
    assert narrow._begin.dtype == narrow._end.dtype == narrow._row_first.dtype == np.int32
    assert wide._begin.dtype == wide._end.dtype == wide._row_first.dtype == np.int64
    assert same_arrays(narrow.widths, wide.widths)
    assert table_rows(narrow) == table_rows(wide)
    for k in range(int(wide.widths.max(initial=0))):
        same_columns(narrow, wide, k)
    pairs = np.flatnonzero(wide.widths >= 2)
    for a, b in zip(narrow.intern((0, 1), pairs), wide.intern((0, 1), pairs), strict=True):
        assert same_arrays(a, b) if isinstance(a, np.ndarray) else a == b


# numbers float() reads, plain decimals among them, and rarer fields: some
# float() rejects, so that their chunk is parsed again, and some it reads
# (non-ASCII digits or space, or 40 digits)
CAST_NUMBER = st.sampled_from(("0.5", "1", "-0.0", "0.17424576215237397", "1e-300", " 2 "))
UNCAST_NUMBER = st.sampled_from(("x", "", "١", " 5", "1" * 40, "inf　"))


@settings(max_examples=150, deadline=None)
@given(numbers=st.lists(CAST_NUMBER, min_size=1, max_size=40), data=st.data(),
       chunk=st.integers(1, 8))
def test_the_byte_path_reads_a_long_column_with_a_few_uncast_numbers_as_csv_reader_does(
        tmp_path_factory, numbers, data, chunk):
    # the shape of an affinity file with one row for a user outside the graph
    for _ in range(data.draw(st.integers(0, 3))):
        numbers[data.draw(st.integers(0, len(numbers) - 1))] = data.draw(UNCAST_NUMBER)
    text = "".join(f"u{i},{x}\n" for i, x in enumerate(numbers))
    path = tmp_path_factory.mktemp("numbers") / "table.csv"
    path.write_bytes(text.encode())
    want = RowTable(csv.reader(io.StringIO(text, newline="")))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_table, "_FLOAT_CHUNK", chunk)
        same_columns(read_table(path), want, 1)


def test_a_number_float_rejects_is_parsed_again_only_with_its_chunk(tmp_path, monkeypatch):
    # 5e-1 is not a plain decimal, so float() reads it; 0.5 is, and never
    # reaches float()
    path = tmp_path / "table.csv"
    path.write_text("".join(f"u{i},5e-1,0.5\n" for i in range(10)) + "nobody,x,0.5\n")
    parsed = []

    def counted(text):
        parsed.append(text)
        return float(text)

    monkeypatch.setattr(_table, "_FLOAT_CHUNK", 4)
    monkeypatch.setattr(_table, "float", counted, raising=False)
    (values, plain), (bad, plain_bad) = read_table(path).floats((1, 2), 11)
    assert values.tolist() == [0.5] * 10 + [0.0]
    assert bad.tolist() == [False] * 10 + [True]
    assert plain.tolist() == [0.5] * 11 and not plain_bad.any()
    # each chunk's other fields once; the last chunk's (fields 8 to 10)
    # once more, one at a time, when float() rejects x
    assert parsed == ["5e-1"] * 8 + ["5e-1", "5e-1", "x"] * 2


@st.composite
def decimal_literals(draw):
    """A sign, 0 to 21 digits with a dot at any place, and now and then two
    dots, an exponent, a space or an underscore."""
    text = draw(st.text("0123456789", max_size=21))
    for _ in range(draw(st.sampled_from((0, 1, 1, 1, 2)))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "." + text[at:]
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(("e5", "E-3", " ", "_"))) + text[at:]
    return draw(st.sampled_from(("", "+", "-"))) + text


# ties to even on each side of 2^53, a 17-digit repr, a 20-digit mantissa,
# and fields float() reads or rejects at the edges of the plain-decimal form
NUMBER_FIELDS = ["9007199254740993", "9007199254740995", "0.17424576215237397",
                 "12345678901234567890", "1234567890123456789", ".5", "5.", "-0", "+.5",
                 "-.", "..", "1.2.3", "1_0", "1e5", "١٢", "12١", ""]


@settings(max_examples=200, deadline=None)
@given(numbers=st.lists(st.one_of(decimal_literals(), st.floats().map(repr)), min_size=1,
                        max_size=30))
@example(numbers=NUMBER_FIELDS)
def test_byte_table_floats_read_each_number_as_float_does(numbers):
    want = []
    for x in numbers:
        try:
            want.append((float(x), False))
        except ValueError:
            want.append((0.0, True))
    text = "".join(f"u,{x}\n" for x in numbers).encode()
    for chunk in (1, 2, 3, _table._FLOAT_CHUNK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_table, "_FLOAT_CHUNK", chunk)
            (values,), (bad,) = ByteTable(text).floats((1,), len(numbers))
        assert same_arrays(values, [v for v, _ in want])
        assert bad.tolist() == [b for _, b in want]


def test_only_plain_decimals_take_the_word_path():
    read = ["3", "+3.00", "0003.0", "-0", ".5", "5.", "0.17424576215237397",
            "9999999999999999999", "0.30000000000000004"]
    other = ["3e0", " 3.0", "3.0 ", "1_0", "99999999999999999999", "١", "inf", "-", ".", "1.2.3"]
    fields = read + other
    table = ByteTable("".join(f"{x}\n" for x in fields).encode())
    begin, length = table._spans(table._index((0,), len(fields)))
    got, values = table._decimals(begin, length)
    assert got.tolist() == [True] * len(read) + [False] * len(other)
    assert same_arrays(values, list(map(float, read)))


@pytest.mark.parametrize("text", ['a,"b"\n', "a,b\r\n", "a,b\rc,d\n", "a\x00,b\n"])
def test_only_text_with_a_quote_cr_or_nul_goes_through_csv_reader(tmp_path, text):
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8", newline="")
    if "\x00" in text and sys.version_info < (3, 11):
        # csv.reader before 3.11 refuses NUL
        with pytest.raises(ParseError, match="^line 1: malformed CSV: .*NUL"):
            read_table(path)
    else:
        assert isinstance(read_table(path), RowTable)


@pytest.mark.parametrize("sizes", INTERN_SIZES)
@pytest.mark.parametrize("collide", ["hash", "slot"])
def test_interning_stays_exact_when_every_hash_collides(monkeypatch, collide, sizes):
    # every long label keyed alike, or every key sent to one home slot
    labels = [f"label-{i % 7}{'-' * (i % 3)}" for i in range(40)] + [
        "", "a", "abcdefgh", "abcdefghi", "long-label-1", " long-label-1 ", "x" * 100]
    text = "".join(f"{a},{b}\n" for a, b in zip(labels, reversed(labels)))
    want = RowTable(csv.reader(io.StringIO(text, newline="")))
    if collide == "hash":
        monkeypatch.setattr(_table, "_hash",
                            lambda length, words: np.zeros(length.size, np.uint64))
    else:
        monkeypatch.setattr(_table, "_fibonacci",
                            lambda key, shift: np.zeros(key.size, dtype=np.int64))
    got = ByteTable(text.encode())
    rows = len(labels)
    with interned_in(sizes):
        for ks in ((0,), (1,), (0, 1)):
            for picked in (rows, np.arange(rows)[::-3]):
                codes, distinct = got.intern(ks, picked)
                want_codes, want_distinct = want.intern(ks, picked)
                assert same_arrays(codes, want_codes)
                assert distinct == want_distinct
        # the table that interned a column finds each of its labels
        codes, distinct = got._distinct((0, 1), rows)
        assert distinct.index.ids(distinct).tolist() == list(range(len(distinct)))


def test_interning_holds_a_block_and_the_labels_not_the_fields():
    # 2e5 fields of 100 labels, past a word long so that they are hashed: the
    # column's codes, and then a block's probe temporaries, about 170 bytes a
    # field of a 16384-field block, however long the column is.  Interning
    # by a sort of every field's key would hold several arrays as long as
    # the codes, about 14 MiB here
    n = 200_000
    text = "".join(f"user-label-{i * 37 % 100}\n" for i in range(n)).encode()
    table = ByteTable(text)
    (codes, labels), peak = traced_peak(table.intern, (0,), n)
    assert labels == [f"user-label-{i * 37 % 100}" for i in range(100)]
    assert same_arrays(codes, np.arange(n) % 100)
    bound = 4 << 20
    assert peak - codes.nbytes < bound, (f"interning peaked {(peak - codes.nbytes) / 2**20:.2f} "
                                         f"MiB over its codes, not under {bound / 2**20:.2f}")


# labels past a word (two of one length), exactly a word long, short,
# empty, not ASCII, holding a comma or a newline, a lone surrogate, and two
# that differ only by a NUL; and lookups of them, of near misses and of
# labels with surrounding space
INDEXED = ["long-label-1", "long-label-2", "x" * 100, "abcdefgh", "abcdefghi", "", "a", "a\x00",
           "ünïcødé", "a,b", "n\nl", "\udc80",
           *(f"label-{i % 7}{'-' * (i % 5)}" for i in range(35))]
LOOKUPS = INDEXED + ["long-label-3", " long-label-1 ", "abcdefgi", "b", "a\x00\x00", "\u3000a",
                     "ü", "x" * 99]


def dict_ids(labels, lookups):
    """The dict oracle: the id of each lookup, the last of equal labels."""
    ids = {label: i for i, label in enumerate(labels)}
    return [ids.get(x, -1) for x in lookups]


@pytest.mark.parametrize("collide", ["hash", "slot"])
def test_label_lookups_stay_exact_when_every_key_or_every_home_slot_collides(monkeypatch,
                                                                            collide):
    if collide == "hash":
        monkeypatch.setattr(_table, "_hash",
                            lambda length, words: np.zeros(length.size, np.uint64))
    else:
        monkeypatch.setattr(_table.LabelIndex, "_home",
                            lambda self, key: np.zeros(key.size, dtype=np.int64))
    index = _table.LabelIndex(INDEXED)
    assert index.ids(LOOKUPS).tolist() == dict_ids(INDEXED, LOOKUPS)
    # a column of fields, found by their bytes, or stripped and found by
    # their str, on both table paths
    fields = [x for x in LOOKUPS if x.isprintable() and not set(x) & set(',"')]
    text = "".join(f"{x},0\n" for x in fields)
    want = dict_ids(INDEXED, [x.strip() for x in fields])
    for table in (ByteTable(text.encode()), RowTable(csv.reader(io.StringIO(text)))):
        assert table.ids(0, len(fields), index).tolist() == want
        rows = np.arange(len(fields))[::-2]
        assert table.ids(0, rows, index).tolist() == [want[i] for i in rows]


@pytest.mark.parametrize("block", [2, 1 << 16])
def test_of_equal_labels_the_last_is_found_as_in_a_dict(monkeypatch, block):
    # placed a block of labels at a time, equal labels in different blocks too
    monkeypatch.setattr(_table, "_LABELS", block)
    labels = ["a", "b", "a", "long-label-1", "x", "long-label-1", "a"]
    lookups = ["a", "b", "long-label-1", "x", "c", None, 3]
    assert _table.LabelIndex(labels).ids(lookups).tolist() == dict_ids(labels, lookups)
    # a label that is not a str is held as none, and found by no lookup
    index = _table.LabelIndex([0, "a", None, "b"])
    assert index.ids(["0", "a", "None", "b", " "]).tolist() == [-1, 1, -1, 3, -1]


def test_a_label_that_strip_changes_is_never_found(tmp_path):
    # every lookup is of a stripped field, which no such label equals
    regions = (" r0", "r1\u3000", "r2", "\x85")
    assert _table.LabelIndex(regions).ids([*regions, "r0", "r1"]).tolist() == [-1, -1, 2, -1,
                                                                               -1, -1]
    path = tmp_path / "affinities.csv"
    for text in ("b,r2,1,1\na, r0,1,1\n", "a,r1\u3000,1,1\n"):
        path.write_text(text, encoding="utf-8")
        assert_same(outcome(load_affinities, path, graph(), regions),
                    outcome(naive_load_affinities, path, graph(), regions),
                    lambda table: (table.download, table.upload))


def test_region_loader_names_the_line_of_a_duplicate_in_the_last_row(tmp_path):
    path = tmp_path / "regions.csv"
    path.write_text("".join(f"r{i},c{i % 3}\n" for i in range(20_000)) + "r7,c1\n",
                    encoding="utf-8")
    with pytest.raises(ParseError, match="^line 20001: duplicate region 'r7'$"):
        load_regions(path)


TOKENS = st.sampled_from([b"a", b"b", b"u1", b"r0", b"c0", b"c1", b"1.5", b"-1", b"nan",
                          b"1e400", b"0", b",", b",", b"\n", b"\n", b'"', b"\r", b"\x00",
                          b"\xff", b"\xc3\xa9", b" ", b"\t", b"x" * 9])
FUZZ = st.one_of(st.binary(max_size=64), st.lists(TOKENS, max_size=40).map(b"".join))


@pytest.mark.parametrize("load", [
    load_graph,
    load_regions,
    PricingMatrix.from_csv,
    lambda p: load_affinities(p, graph(), REGIONS),
    lambda p: load_affinities(p, graph(), REGIONS, ignore_unknown_users=True),
    lambda p: load_profiles(p, graph(), REGIONS),
    lambda p: load_profiles(p, graph(), None, ignore_unknown_users=True),
    lambda p: Assignment.from_csv(p, graph(), model()),
], ids=["edges", "regions", "pricing", "affinities", "affinities-ignore", "profiles",
        "profiles-ignore", "assignment"])
@settings(max_examples=150, deadline=None)
@given(data=FUZZ)
def test_file_loaders_raise_only_validation_errors_on_arbitrary_bytes(tmp_path_factory,
                                                                      load, data):
    path = tmp_path_factory.mktemp("fuzz") / "table.csv"
    path.write_bytes(data)
    try:
        load(path)
    except ValidationError:  # ParseError included
        pass


# characters the writer quotes for, and others it must leave alone; NUL only
# where the csv module reads and writes it (Python 3.11 on)
NUL = ["\x00"] if sys.version_info >= (3, 11) else []
WRITE_CHARS = st.one_of(
    st.sampled_from([",", '"', "\r", "\n", "\t", " ", "\u00e9", "\u3000", *NUL]),
    st.characters(min_codepoint=1, max_codepoint=127))
WRITE_FIELD = st.one_of(st.just(""), st.text(WRITE_CHARS, max_size=6))
WRITE_ROWS = st.integers(2, 4).flatmap(
    lambda k: st.lists(st.lists(WRITE_FIELD, min_size=k, max_size=k), max_size=6))


@settings(max_examples=300, deadline=None)
@given(rows=WRITE_ROWS, header=st.booleans())
def test_write_table_reads_back_as_the_rows_written(tmp_path_factory, rows, header):
    path = tmp_path_factory.mktemp("write") / "table.csv"
    if header and rows:
        write_table(path, zip(*rows[1:]), header=rows[0])
    else:
        write_table(path, zip(*rows))
    assert table_rows(read_table(path)) == rows


@settings(max_examples=300, deadline=None)
@given(rows=WRITE_ROWS)
def test_write_table_writes_what_csv_writer_writes_when_no_field_holds_a_cr(
        tmp_path_factory, rows):
    rows = [[field.replace("\r", "") for field in row] for row in rows]
    path = tmp_path_factory.mktemp("write") / "table.csv"
    write_table(path, zip(*rows))
    want = io.StringIO(newline="")
    csv.writer(want, lineterminator="\n").writerows(rows)
    assert path.read_bytes() == want.getvalue().encode("utf-8")


def test_write_table_writes_the_same_bytes_in_blocks_of_any_size(tmp_path, monkeypatch):
    # only the fourth row needs quoting, so blocks of 2 quote only the second
    columns = [[f"u{i}" for i in range(7)], ["c", "c", "c", "a,b", "c", "c", "c"],
               np.arange(7) / 3, list(range(7))]
    write_table(tmp_path / "whole.csv", columns, header=("a", "b", "c", "d"))
    monkeypatch.setattr(_table, "_BLOCK", 2)
    write_table(tmp_path / "blocks.csv", columns, header=("a", "b", "c", "d"))
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
    assert read_table(tmp_path / "blocks.csv").row(4) == ["u3", "a,b", "1.0", "3"]


def test_an_assignment_of_two_full_blocks_and_a_part_writes_what_csv_writer_writes(
        tmp_path):
    # 10,000 users are two whole blocks of 4096 rows and part of a third;
    # a few labels need quoting, one of them in each block
    n = 10_000
    assert 2 * _table._BLOCK < n < 3 * _table._BLOCK
    labels = [f'u"{i},x' if i % 4096 == 7 else f"u{i}" for i in range(n)]
    rng = np.random.default_rng(3)
    graph = SocialGraph(labels, rng.integers(0, n // 2, 50), rng.integers(n // 2, n, 50),
                        np.ones(50))
    model = random_model(graph, rng, n_clouds=3)
    assignment = Assignment(rng.integers(0, 3, n))
    path = tmp_path / "assignment.csv"
    assignment.to_csv(path, graph, model)
    want = io.StringIO(newline="")
    csv.writer(want, lineterminator="\n").writerows(
        zip(labels, (model.cloud_labels[c] for c in assignment.host.tolist())))
    assert path.read_bytes() == want.getvalue().encode("utf-8")
    assert Assignment.from_csv(path, graph, model) == assignment


def test_write_table_renders_numbers_by_repr_and_str(tmp_path):
    path = tmp_path / "table.csv"
    write_table(path, [["a", "b\rc"], np.array([0.1, -0.0]), [np.float64(1e300), 2.5],
                       [1, np.int64(2)]], header=("label", "x", "y", "n"))
    assert path.read_bytes() == b'label,x,y,n\na,0.1,1e+300,1\n"b\rc",-0.0,2.5,2\n'


# labels as load_graph gives them: non-empty, with no surrounding space
GRAPH_LABEL = st.text(st.one_of(WRITE_CHARS, st.sampled_from(SPACE)), min_size=1,
                      max_size=6).filter(lambda s: s == s.strip())
WEIGHT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.1]),
                   st.floats(0.0, 1e300, allow_subnormal=True))


@st.composite
def loadable_graphs(draw):
    """A graph with no isolated user whose ids follow first appearance in its
    edge file: a chain u -> u + 1, and other edges only to an earlier user or
    to the next one.  Repeated pairs are summed."""
    labels = draw(st.lists(GRAPH_LABEL, min_size=2, max_size=8, unique=True))
    n = len(labels)
    src, dst = list(range(n - 1)), list(range(1, n))
    for u, back in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                 max_size=12)):
        if u < back or (u == back and u + 1 == n):
            continue
        src.append(u)
        dst.append(u + 1 if u == back else back)
    weight = draw(st.lists(WEIGHT, min_size=len(src), max_size=len(src)))
    return SocialGraph(labels, src, dst, weight)


@settings(max_examples=200, deadline=None)
@given(g=loadable_graphs())
def test_a_graph_written_by_to_csv_loads_back_as_itself(tmp_path_factory, g):
    path = tmp_path_factory.mktemp("graph") / "edges.csv"
    g.to_csv(path)
    for got, want in zip(graph_arrays(load_graph(path)), graph_arrays(g), strict=True):
        assert got == want if isinstance(want, tuple) else same_arrays(got, want)
