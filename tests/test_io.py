import io

import pytest

import bchrom as b
from bchrom.io import FormatError


def test_parse_dimacs_k3():
    text = "c a triangle\np edge 3 3\nc\ne 1 2\ne 2 3\ne 1 3\n"
    g = b.parse_graph(text, "dimacs")
    assert g == b.complete(3)


def test_parse_edgelist_p3():
    g = b.parse_graph("3 2\n1 2\n2 3\n", "edgelist")
    assert g == b.path(3)


def test_parse_edgelist_crlf():
    g = b.parse_graph("3 2\r\n1 2\r\n2 3\r\n", "edgelist")
    assert g == b.path(3)


@pytest.mark.parametrize("fmt", ["dimacs", "edgelist"])
@pytest.mark.parametrize("make", [lambda: b.sunlet(4), lambda: b.wheel(5),
                                  lambda: b.build_graph(1, [])])
def test_round_trip(fmt, make):
    g = make()
    assert b.parse_graph(b.format_graph(g, fmt), fmt) == g


@pytest.mark.parametrize("fmt", ["dimacs", "edgelist"])
def test_write_is_canonical(fmt):
    g = b.parse_graph("3 2\n2 3\n1 2\n", "edgelist")
    text = b.format_graph(g, fmt)
    assert b.format_graph(b.parse_graph(text, fmt), fmt) == text


def test_unknown_graph_format_is_rejected():
    with pytest.raises(ValueError, match="^unknown graph format 'bogus'$"):
        b.parse_graph("3 2\n1 2\n2 3\n", "bogus")
    with pytest.raises(ValueError, match="^unknown graph format 'bogus'$"):
        b.format_graph(b.path(3), "bogus")


def test_read_write_streams():
    g = b.cycle(5)
    buf = io.StringIO()
    b.write_graph(g, buf, "dimacs")
    assert b.read_graph(io.StringIO(buf.getvalue()), "dimacs") == g
    assert b.read_graph(io.BytesIO(buf.getvalue().encode()), "dimacs") == g


def test_read_write_paths(tmp_path):
    g = b.closed_ladder(3)
    target = tmp_path / "cl3.col"
    b.write_graph(g, target, "dimacs")
    assert b.read_graph(target, "dimacs") == g


def test_dimacs_accepts_disconnected():
    g = b.parse_graph("p edge 4 1\ne 1 2\n", "dimacs")
    assert not g.connected  # parsing must not reject; statistics gate later


@pytest.mark.parametrize("text", [
    "p edge 3\ne 1 2\n",          # short header
    "e 1 2\n",                    # edge before header
    "p edge 3 1\ne 1 4\n",        # endpoint out of range
    "p edge 3 2\ne 1 2\n",        # edge count mismatch
    "p edge 3 1\ne 1 1\n",        # self-loop
    "q edge 3 1\ne 1 2\n",        # junk line
    "p edge 2 1\np edge 2 1\ne 1 2\n",
    "problem edge 2 1\nedge 1 2\n",  # keywords must be exactly p and e
    "px edge 2 1\ne 1 2\n",
    "p edge 2 1\nex 1 2\n",
    "p edge 2 1\ncount 7\ne 1 2\n",  # a comment's first token is exactly c
    "", "c only\n",               # no problem line at all
])
def test_malformed_dimacs(text):
    with pytest.raises(FormatError):
        b.parse_graph(text, "dimacs")


@pytest.mark.parametrize("text", [
    "", "2\n1 2\n", "2 1\n1 2\n2 1\n", "2 1\nx y\n",
    "2 1\n1 1\n",   # self-loop
    "2 1\n1 3\n",   # endpoint out of range
    "0 0\n",        # zero vertex count
])
def test_malformed_edgelist(text):
    with pytest.raises(FormatError):
        b.parse_graph(text, "edgelist")


@pytest.mark.parametrize("fmt", ["dimacs", "edgelist"])
def test_byte_order_mark_is_dropped(fmt, tmp_path):
    g = b.wheel(5)
    data = "\ufeff".encode() + b.format_graph(g, fmt).encode()
    target = tmp_path / "marked.txt"
    target.write_bytes(data)
    assert b.read_graph(target, fmt) == b.read_graph(io.BytesIO(data), fmt) == g


def test_byte_order_mark_is_dropped_from_text():
    # a text stream or string may still hold the mark, as a file opened
    # with encoding="utf-8" does; only a leading one is dropped
    assert b.read_graph(io.StringIO("\ufeff3 2\n1 2\n2 3\n"), "edgelist") == b.path(3)
    assert b.parse_graph("\ufeffp edge 2 1\ne 1 2\n", "dimacs") == b.path(2)
    assert b.parse_colouring("\ufeff2\n1 1\n2 2\n") == b.Colouring(2, (1, 2))
    with pytest.raises(FormatError):
        b.parse_graph("3 2\n\ufeff1 2\n2 3\n", "edgelist")


def test_colouring_round_trip():
    c = b.Colouring(3, (1, 2, 1, 3))
    assert b.parse_colouring(b.format_colouring(c)) == c


def test_parse_colouring_example():
    c = b.parse_colouring("2\n1 1\n2 2\n3 1\n")
    assert c.k == 2 and c.colours == (1, 2, 1)


@pytest.mark.parametrize("text", [
    "", "x\n1 1\n",
    "2\n1 1\n1 2\n",      # duplicate vertex
    "2\n1 1\n3 2\n",      # gap in vertex numbering
    "2\n1 3\n2 1\n",      # colour out of range
])
def test_malformed_colouring(text):
    with pytest.raises(FormatError):
        b.parse_colouring(text)
