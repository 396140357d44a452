"""Command-line front end.

Subcommands: gen, stats, phi, verify, sweep, errata.  Machine output is
schema-stable: keys are emitted in a fixed order and every rational is an
exact {"num": .., "den": ..} pair, so identical inputs give byte-identical
JSON.

Exit codes: 0 success, 1 I/O failure, 2 usage or malformed input,
3 search cap exceeded, 4 verification regression.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import warnings
from dataclasses import asdict
from fractions import Fraction

from . import __version__, closed_forms, graphs, io as gio, search, stats

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_REGRESSION = 4

FAMILY_CHOICES = [f.value for f in closed_forms.Family]
GEN_CHOICES = FAMILY_CHOICES + ["complete-bipartite", "random"]


# first match wins; every malformed-input error is a ValueError
_EXIT_CODES = {graphs.SearchCapError: EXIT_CAP, OSError: EXIT_IO, ValueError: EXIT_USAGE}
_VERIFY_EXIT_CODES = {"ok": EXIT_OK, "cap-exceeded": EXIT_CAP, "regression": EXIT_REGRESSION}


def _rat(x) -> dict:
    """json default: a Fraction becomes its exact {"num": .., "den": ..} pair."""
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _dump_json(obj, out) -> None:
    json.dump(obj, out, indent=2, default=_rat)
    out.write("\n")


def _emit(record: dict, fmt: str, rows: list[dict] | None = None) -> None:
    """Write record to stdout as JSON, or as CSV: rows, else the record as one row."""
    if fmt == "csv":
        gio.write_csv([record] if rows is None else rows, sys.stdout)
    else:
        _dump_json(record, sys.stdout)


def _parse_range(text: str) -> range:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise ValueError(f"range must look like A..B, got {text!r}") from exc
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _read_colouring(path: str | None) -> stats.Colouring | None:
    if not path:
        return None
    with open(path, encoding="utf-8") as fh:
        return gio.parse_colouring(fh.read())


def _load_graph(args, colouring_file: str | None = None,
                ) -> tuple[graphs.Graph, str, stats.Colouring | None]:
    """(graph, stable descriptor, colouring read from colouring_file or
    None), from --family/--n or --graph FILE.  A family instance is checked
    by closed_forms.checked_generate before it is built."""
    if args.family and args.graph:
        raise ValueError("give either --family or --graph, not both")
    if args.family:
        if args.n is None:
            raise ValueError("--family requires --n")
        c = _read_colouring(colouring_file)
        g = closed_forms.checked_generate(args.family, args.n, args.max_n, c)
        return g, f"{args.family}({args.n})", c
    if args.graph:
        g = gio.read_graph(args.graph, args.graph_format)
        return g, args.graph, _read_colouring(colouring_file)
    raise ValueError("give a graph via --family/--n or --graph FILE")


def _generate(family: str, args) -> graphs.Graph:
    if family == "complete-bipartite":
        if args.n2 is None:
            raise ValueError("complete-bipartite requires --n and --n2")
        return graphs.complete_bipartite(args.n, args.n2)
    if family == "random":
        rng = random.Random(args.seed)
        return graphs.random_connected_graph(args.n, rng)
    return closed_forms.generate(closed_forms.Family(family), args.n)


def cmd_gen(args) -> int:
    g = _generate(args.family, args)
    if g.n == 1:
        warnings.warn("trivial single-vertex graph")
    gio.write_graph(g, args.out or sys.stdout, args.format)
    return EXIT_OK


def _record(command: str, **fields) -> dict:
    """The JSON envelope every command writes: tool, version, command, then fields."""
    return {"tool": "bchrom", "version": __version__, "command": command, **fields}


def _colouring_record(g, c, descriptor: str) -> dict:
    d = stats.distribution(g, c)
    proper = stats.is_proper(g, c)
    failing = [colour for colour in range(1, c.k + 1)
               if not stats.b_vertices(g, c, colour)]
    surjective = all(t > 0 for t in d.strengths)
    moments = stats.stats_from_strengths(d.strengths)
    return _record(
        "stats",
        graph=descriptor,
        vertices=g.n,
        edges=g.m,
        k=c.k,
        strengths=list(d.strengths),
        pmf=list(d.pmf),
        mean=moments.mean,
        variance=moments.variance,
        proper=proper,
        uses_all_colours=surjective,
        b_colouring=proper and not failing,
        classes_without_b_vertex=failing,
    )


def _extremal_record(moments, colouring) -> dict:
    return {"mean": moments.mean, "variance": moments.variance,
            "strengths": list(colouring.strengths()), "colouring": list(colouring.colours)}


def _report_record(g, descriptor: str, args) -> dict:
    report = search.full_report(g, max_n=args.max_n,
                                allow_disconnected=args.allow_disconnected)
    return _record(
        "stats",
        graph=descriptor,
        parameters={"max_n": args.max_n, "allow_disconnected": args.allow_disconnected},
        vertices=g.n,
        edges=g.m,
        chi=report.chi,
        phi=report.phi,
        min=_extremal_record(report.min_stats, report.min_colouring),
        max=_extremal_record(report.max_stats, report.max_colouring),
    )


def cmd_stats(args) -> int:
    g, descriptor, c = _load_graph(args, args.colouring)
    record = (_report_record(g, descriptor, args) if c is None
              else _colouring_record(g, c, descriptor))
    _emit(record, args.format)
    return EXIT_OK


def cmd_phi(args) -> int:
    g, descriptor, _ = _load_graph(args)
    phi = search.b_chromatic_number(g, max_n=args.max_n,
                                    allow_disconnected=args.allow_disconnected)
    if args.format == "json":
        _dump_json(_record("phi", graph=descriptor, phi=phi), sys.stdout)
    else:
        print(phi)
    return EXIT_OK


def _sweep_record(command: str, args) -> tuple[dict, list[dict]]:
    """The record of closed_forms.sweep over --range, and its rows."""
    ns = _parse_range(args.range)
    rows = [asdict(e) for e in closed_forms.sweep(args.family, ns, max_n=args.max_n)]
    return _record(command, family=args.family, range=[ns.start, ns.stop - 1],
                   rows=rows), rows


def cmd_verify(args) -> int:
    record, rows = _sweep_record("verify", args)
    regressions = sum(1 for row in rows if not row["consistent"] and not row["error"])
    cap_errors = sum(1 for row in rows if row["error"])
    status = "regression" if regressions else "cap-exceeded" if cap_errors else "ok"
    record.update(regressions=regressions, cap_errors=cap_errors, status=status)
    _emit(record, args.format, rows)
    return _VERIFY_EXIT_CODES[status]


def cmd_sweep(args) -> int:
    record, rows = _sweep_record("sweep", args)
    _emit(record, args.format, rows)
    return EXIT_OK


def cmd_errata(args) -> int:
    sys.stdout.write(closed_forms.errata_table_csv())
    return EXIT_OK


def _add_graph_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=FAMILY_CHOICES, help="generate a family instance")
    p.add_argument("--n", type=int, help="family parameter")
    p.add_argument("--graph", help="read the graph from a file instead")
    p.add_argument("--graph-format", choices=gio.GRAPH_FORMATS, default="edgelist",
                   help="file format of --graph (default: edgelist)")
    p.add_argument("--max-n", type=int, default=None,
                   help=f"override the search size cap (default {search.DEFAULT_SEARCH_CAP})")
    p.add_argument("--allow-disconnected", action="store_true",
                   help="permit statistics on disconnected graphs")


def _add_sweep_args(p: argparse.ArgumentParser, formats: list[str]) -> None:
    """verify's and sweep's arguments; the first of formats is the default."""
    p.add_argument("--family", choices=FAMILY_CHOICES, required=True)
    p.add_argument("--range", required=True, help="inclusive range A..B")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--format", choices=formats, default=formats[0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bchrom",
        description="Exact b-colouring statistics of small graphs")
    parser.add_argument("--version", action="version", version=f"bchrom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph file")
    p.add_argument("--family", choices=GEN_CHOICES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n2", type=int, help="second part size for complete-bipartite")
    p.add_argument("--seed", type=int, default=0, help="seed for --family random")
    p.add_argument("--format", choices=gio.GRAPH_FORMATS, default="edgelist")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", help="p.m.f./mean/variance of a colouring, or a full report")
    _add_graph_source(p)
    p.add_argument("--colouring", help="colouring file: first line k, then 'vertex colour' lines")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("phi", help="b-chromatic number")
    _add_graph_source(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_phi)

    p = sub.add_parser("verify", help="sweep a family and gate on table consistency")
    _add_sweep_args(p, ["json", "csv"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="emit the closed-form table for a family")
    _add_sweep_args(p, ["csv", "json"])
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("errata", help="print the errata registry as CSV")
    p.set_defaults(func=cmd_errata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage and 0 on --help/--version
        return int(exc.code or 0)
    try:
        # record warnings under the active filters, so -W ignore still
        # silences them; each is printed below as one plain line
        with warnings.catch_warnings(record=True) as caught:
            return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        message = exc
        if isinstance(exc, search.DisconnectedGraphError):  # name the flag, not the keyword
            message = "graph is disconnected; pass --allow-disconnected to override"
        print(f"error: {message}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    finally:
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
