import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwalkspec import (
    Graph,
    Graph6Error,
    complete_graph,
    cycle_graph,
    parse_graph6,
    parse_graph6_file,
    read_graph6_file,
    write_graph6,
    write_graph6_file,
)


def test_known_encodings():
    assert parse_graph6("C~") == complete_graph(4)
    assert parse_graph6("Bw") == cycle_graph(3)
    assert parse_graph6("@") == Graph(1, [])
    assert write_graph6(complete_graph(4)) == "C~"
    assert write_graph6(cycle_graph(3)) == "Bw"
    assert write_graph6(Graph(1, [])) == "@"


def test_header_prefix_stripped():
    assert parse_graph6(">>graph6<<C~") == complete_graph(4)


def test_trailing_newline_tolerated():
    assert parse_graph6("C~\n") == complete_graph(4)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.binary(min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, b in zip(pairs, mask) if b & 1])


@settings(max_examples=200, deadline=None)
@given(random_graphs())
def test_roundtrip_parse_write(g):
    assert parse_graph6(write_graph6(g)) == g


@settings(max_examples=200, deadline=None)
@given(random_graphs())
def test_roundtrip_write_parse_write(g):
    s = write_graph6(g)
    assert write_graph6(parse_graph6(s)) == s


@settings(max_examples=100, deadline=None)
@given(random_graphs())
def test_agrees_with_networkx(g):
    s = write_graph6(g)
    h = nx.from_graph6_bytes(s.encode("ascii"))
    assert set(h.nodes) == set(range(g.n))
    assert {tuple(sorted(e)) for e in h.edges} == set(g.edges)
    assert nx.to_graph6_bytes(h, header=False).strip().decode("ascii") == s


def test_large_n_uses_long_form():
    g = Graph(63, [(0, 1), (61, 62)])
    s = write_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g
    assert nx.from_graph6_bytes(s.encode()).number_of_edges() == 2


def test_errors_name_byte_offset():
    with pytest.raises(Graph6Error, match="offset 1"):
        parse_graph6("C" + chr(30))  # byte out of range
    with pytest.raises(Graph6Error, match="too short"):
        parse_graph6("C")  # K4-sized header, no payload
    with pytest.raises(Graph6Error, match="trailing garbage at offset 2"):
        parse_graph6("C~~")
    with pytest.raises(Graph6Error, match="padding"):
        parse_graph6("Bw".replace("w", "x"))  # nonzero padding bits for n=3
    with pytest.raises(Graph6Error):
        parse_graph6("?")  # n = 0
    with pytest.raises(Graph6Error):
        parse_graph6("")


def test_non_canonical_long_count_rejected():
    # n=4 encoded with the 3-byte form: '~' '?' '?' 'C' + payload
    with pytest.raises(Graph6Error, match="non-canonical"):
        parse_graph6("~??C~")


def test_file_roundtrip(tmp_path):
    graphs = [cycle_graph(n) for n in range(3, 8)]
    path = tmp_path / "corpus.g6"
    write_graph6_file(str(path), graphs)
    loaded = read_graph6_file(str(path))
    assert [g for _, g in loaded] == graphs
    assert loaded[0][0] == f"{path}:1"


def test_file_with_header_line():
    lines = [">>graph6<<", "C~", "", "Bw"]
    out = parse_graph6_file(lines, source="mem")
    assert [gid for gid, _ in out] == ["mem:2", "mem:4"]
    assert out[0][1] == complete_graph(4)

    # header glued to the first graph
    out2 = parse_graph6_file([">>graph6<<C~"], source="mem")
    assert out2 == [("mem:1", complete_graph(4))]


def test_file_with_a_header_on_a_later_line():
    # two nauty outputs joined: the second header starts line 3
    out = parse_graph6_file([">>graph6<<C~", "Bw", ">>graph6<<", ">>graph6<<C~"], source="mem")
    assert out == [("mem:1", complete_graph(4)), ("mem:2", cycle_graph(3)),
                   ("mem:4", complete_graph(4))]


def test_file_with_a_doubled_header_fails_on_its_line():
    with pytest.raises(Graph6Error, match="^mem:1: byte 62 "):
        parse_graph6_file([">>graph6<<>>graph6<<C~"], source="mem")
    with pytest.raises(Graph6Error, match="^mem:3: byte 62 "):
        parse_graph6_file(["C~", "Bw", ">>graph6<<>>graph6<<", "C~"], source="mem")


def test_error_offsets_count_from_the_start_of_the_line():
    with pytest.raises(Graph6Error, match="^mem:1: trailing garbage at offset 12$"):
        parse_graph6_file([">>graph6<<C~~"], source="mem")
    # out of range, nonzero padding, non-canonical count, n = 0, nothing after the header
    for bad, offset in (("C" + chr(30), 1), ("Bx", 1), ("~??C~", 0), ("?", 0), ("", 0)):
        for header in ("", ">>graph6<<"):
            with pytest.raises(Graph6Error, match=f"offset {len(header) + offset}\\b"):
                parse_graph6(header + bad)

def test_file_error_reports_line():
    with pytest.raises(Graph6Error, match="mem:2"):
        parse_graph6_file(["C~", chr(30) * 3], source="mem")


def test_boundary_n62_vs_n63():
    g62 = Graph(62, [(0, 61)])
    s62 = write_graph6(g62)
    assert not s62.startswith("~")
    assert parse_graph6(s62) == g62
    g63 = Graph(63, [(0, 62)])
    s63 = write_graph6(g63)
    assert s63.startswith("~") and not s63.startswith("~~")
    assert parse_graph6(s63) == g63


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=1, max_codepoint=127), max_size=12))
def test_parser_never_crashes_on_junk(s):
    try:
        g = parse_graph6(s)
    except Graph6Error:
        return
    # anything accepted must round-trip
    assert parse_graph6(write_graph6(g)) == g


def test_truncated_long_counts():
    with pytest.raises(Graph6Error, match="truncated 3-byte"):
        parse_graph6("~B")
    with pytest.raises(Graph6Error, match="truncated 6-byte"):
        parse_graph6("~~BBB")
