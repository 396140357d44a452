"""Graph and colouring file formats.

Two graph formats are supported:

* DIMACS .col subset: ``c`` comment lines, one ``p edge <n> <m>`` header,
  then ``e <u> <v>`` lines with 1-based endpoints.
* plain edge list: first line ``<n> <m>``, then m lines ``<u> <v>``,
  whitespace separated, LF or CRLF.

Colouring files: first line is the declared colour count k, then one
``vertex colour`` line per vertex.

Writers emit a canonical form (edges sorted, LF line endings) so that
read/write round-trips are byte stable.  ``write_csv`` is the one CSV
emitter: every CSV table the package prints goes through it.
"""

from __future__ import annotations

import csv

from .graphs import Graph, GraphError, build_graph
from .stats import Colouring

GRAPH_FORMATS = ("edgelist", "dimacs")


class FormatError(ValueError):
    """Malformed graph or colouring file."""


def _int_pair(parts: list[str], where: str) -> tuple[int, int]:
    if len(parts) != 2:
        raise FormatError(f"{where}: expected two integers, got {parts!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise FormatError(f"{where}: expected two integers, got {parts!r}") from exc


def _lines(text: str) -> list[str]:
    """text's lines, less a leading byte-order mark: every parser reads its
    input through this, so text and bytes alike may start with one."""
    return text.removeprefix("\ufeff").splitlines()


def _parse_dimacs(text: str) -> tuple[int, list[tuple[int, int]]]:
    n = m = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.strip()
        parts = line.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise FormatError(f"line {lineno}: malformed header {line!r}")
            n, m = _int_pair(parts[2:], f"line {lineno}")
        elif parts[0] == "e":
            if n is None:
                raise FormatError(f"line {lineno}: edge before problem line")
            u, v = _int_pair(parts[1:], f"line {lineno}")
            edges.append((u, v))
        else:
            raise FormatError(f"line {lineno}: unrecognised line {line!r}")
    if n is None:
        raise FormatError("missing 'p edge' problem line")
    if len(edges) != m:
        raise FormatError(f"header declares {m} edges, file has {len(edges)}")
    return n, edges


def _parse_edgelist(text: str) -> tuple[int, list[tuple[int, int]]]:
    lines = [ln.strip() for ln in _lines(text) if ln.strip()]
    if not lines:
        raise FormatError("empty edge-list input")
    n, m = _int_pair(lines[0].split(), "line 1")
    if len(lines) - 1 != m:
        raise FormatError(f"header declares {m} edges, file has {len(lines) - 1}")
    return n, [_int_pair(ln.split(), f"line {i}") for i, ln in enumerate(lines[1:], start=2)]


def parse_graph(text: str, fmt: str) -> Graph:
    if fmt == "dimacs":
        n, edges = _parse_dimacs(text)
    elif fmt == "edgelist":
        n, edges = _parse_edgelist(text)
    else:
        raise ValueError(f"unknown graph format {fmt!r}")
    try:
        return build_graph(n, edges)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc


def format_graph(g: Graph, fmt: str) -> str:
    edges = g.sorted_edges()
    if fmt == "dimacs":
        lines = [f"p edge {g.n} {g.m}"]
        lines += [f"e {u} {v}" for u, v in edges]
    elif fmt == "edgelist":
        lines = [f"{g.n} {g.m}"]
        lines += [f"{u} {v}" for u, v in edges]
    else:
        raise ValueError(f"unknown graph format {fmt!r}")
    return "\n".join(lines) + "\n"


def read_graph(source, fmt: str) -> Graph:
    """Parse a graph from a path, text stream, or byte stream."""
    if hasattr(source, "read"):
        data = source.read()
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    return parse_graph(data, fmt)


def write_graph(g: Graph, destination, fmt: str) -> None:
    """Write a graph to a path or text stream in canonical form."""
    text = format_graph(g, fmt)
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def parse_colouring(text: str) -> Colouring:
    lines = [ln.strip() for ln in _lines(text) if ln.strip()]
    if not lines:
        raise FormatError("empty colouring input")
    try:
        k = int(lines[0])
    except ValueError as exc:
        raise FormatError(f"first line must be the colour count, got {lines[0]!r}") from exc
    seen: dict[int, int] = {}
    for i, ln in enumerate(lines[1:], start=2):
        v, c = _int_pair(ln.split(), f"line {i}")
        if v in seen:
            raise FormatError(f"line {i}: vertex {v} coloured twice")
        seen[v] = c
    n = len(seen)
    if set(seen) != set(range(1, n + 1)):
        missing = sorted(set(range(1, n + 1)) - set(seen))
        raise FormatError(f"vertices must be exactly 1..{n}; missing {missing}")
    try:
        return Colouring(k, (seen[v] for v in range(1, n + 1)))
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def format_colouring(c: Colouring) -> str:
    lines = [str(c.k)]
    lines += [f"{v} {c.colour_of(v)}" for v in range(1, c.n + 1)]
    return "\n".join(lines) + "\n"


def write_csv(records: list[dict], out) -> None:
    """A header row from the first record's keys, then one row per record.

    Nested keys are joined with "." and lists are space-separated; csv
    writes a Fraction as str() gives it (num/den, or num when den is 1) and
    None as an empty cell.
    """
    def flatten(prefix, value, into):
        if isinstance(value, dict):
            for key, sub in value.items():
                flatten(f"{prefix}.{key}" if prefix else key, sub, into)
        elif isinstance(value, list):
            into[prefix] = " ".join(map(str, value))
        else:
            into[prefix] = value
        return into

    rows = [flatten("", record, {}) for record in records]
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(rows[0].keys())
    writer.writerows(row.values() for row in rows)
