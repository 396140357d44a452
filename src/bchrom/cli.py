"""Command-line front end.

Subcommands: gen, stats, phi, verify, sweep.  Machine output is
schema-stable: keys are emitted in a fixed order and every rational is an
exact {"num": .., "den": ..} pair, so identical inputs give byte-identical
JSON.

Exit codes: 0 success, 1 I/O failure, 2 usage or malformed input,
3 search cap exceeded, 4 verification regression.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import warnings
from fractions import Fraction

from . import __version__, closed_forms, graphs, io as gio, search, stats

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_REGRESSION = 4

FAMILY_CHOICES = [f.value for f in closed_forms.Family]
GEN_CHOICES = FAMILY_CHOICES + ["complete-bipartite", "random"]


class _UsageError(Exception):
    pass


def _rat(x: Fraction | None) -> dict | None:
    return None if x is None else {"num": x.numerator, "den": x.denominator}


def _dump_json(obj, out) -> None:
    json.dump(obj, out, indent=2)
    out.write("\n")


def _parse_range(text: str) -> range:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise _UsageError(f"range must look like A..B, got {text!r}") from exc
    if hi < lo:
        raise _UsageError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _load_graph(args) -> tuple[graphs.Graph, str]:
    """Graph plus a stable descriptor, from --family/--n or --graph FILE."""
    if args.family and args.graph:
        raise _UsageError("give either --family or --graph, not both")
    if args.family:
        if args.n is None:
            raise _UsageError("--family requires --n")
        g = _generate(args.family, args)
        return g, f"{args.family}({args.n})"
    if args.graph:
        g = gio.read_graph(args.graph, args.graph_format)
        return g, args.graph
    raise _UsageError("give a graph via --family/--n or --graph FILE")


def _generate(family: str, args) -> graphs.Graph:
    if family == "complete-bipartite":
        if args.n2 is None:
            raise _UsageError("complete-bipartite requires --n and --n2")
        return graphs.complete_bipartite(args.n, args.n2)
    if family == "random":
        rng = random.Random(args.seed)
        return graphs.random_connected_graph(args.n, rng)
    return closed_forms.generate(closed_forms.Family(family), args.n)


def cmd_gen(args) -> int:
    g = _generate(args.family, args)
    if g.n == 1:
        warnings.warn("trivial single-vertex graph")
    text = gio.format_graph(g, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
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
    is_b = proper and surjective and not failing
    return _record(
        "stats",
        graph=descriptor,
        vertices=g.n,
        edges=g.m,
        k=c.k,
        strengths=list(d.strengths),
        pmf=[_rat(f) for f in d.pmf],
        mean=_rat(stats.mean(d)),
        variance=_rat(stats.variance(d)),
        proper=proper,
        uses_all_colours=surjective,
        b_colouring=is_b,
        classes_without_b_vertex=failing,
    )


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
        min={
            "mean": _rat(report.min_stats.mean),
            "variance": _rat(report.min_stats.variance),
            "strengths": list(report.min_colouring.strengths()),
            "colouring": list(report.min_colouring.colours),
        },
        max={
            "mean": _rat(report.max_stats.mean),
            "variance": _rat(report.max_stats.variance),
            "strengths": list(report.max_colouring.strengths()),
            "colouring": list(report.max_colouring.colours),
        },
    )


def cmd_stats(args) -> int:
    g, descriptor = _load_graph(args)
    if args.colouring:
        with open(args.colouring, encoding="utf-8") as fh:
            c = gio.parse_colouring(fh.read())
        record = _colouring_record(g, c, descriptor)
    else:
        record = _report_record(g, descriptor, args)
    if args.format == "csv":
        _write_csv([record], sys.stdout)
    else:
        _dump_json(record, sys.stdout)
    return EXIT_OK


def cmd_phi(args) -> int:
    g, descriptor = _load_graph(args)
    phi = search.b_chromatic_number(g, max_n=args.max_n,
                                    allow_disconnected=args.allow_disconnected)
    if args.format == "json":
        _dump_json(_record("phi", graph=descriptor, phi=phi), sys.stdout)
    else:
        print(phi)
    return EXIT_OK


def _sweep_rows(family: str, ns, max_n) -> list[dict]:
    rows = []
    for entry in closed_forms.sweep(closed_forms.Family(family), ns, max_n=max_n):
        rows.append({
            "family": entry.family.value,
            "n": entry.n,
            "phi": entry.search_phi,
            "printed_mean": _rat(entry.printed_mean),
            "printed_variance": _rat(entry.printed_variance),
            "corrected_mean": _rat(entry.corrected_mean),
            "corrected_variance": _rat(entry.corrected_variance),
            "search_mean": _rat(entry.search_mean),
            "search_variance": _rat(entry.search_variance),
            "errata": entry.errata,
            "consistent": entry.consistent,
            "note": entry.note,
            "error": entry.error,
        })
    return rows


def _write_csv(records: list[dict], out) -> None:
    """A header row from the first record's keys, then one row per record.

    Nested keys are joined with ".", rationals print as num/den, lists are
    space-separated and None is an empty cell.
    """
    def cell(value):
        if isinstance(value, dict) and set(value) == {"num", "den"}:
            return f"{value['num']}/{value['den']}" if value["den"] != 1 else str(value["num"])
        return value

    def flatten(prefix, value, into):
        value = cell(value)
        if isinstance(value, dict):
            for key, sub in value.items():
                flatten(f"{prefix}.{key}" if prefix else key, sub, into)
        elif isinstance(value, list):
            into[prefix] = " ".join(str(cell(v)) for v in value)
        else:
            into[prefix] = value
        return into

    rows = [flatten("", record, {}) for record in records]
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(rows[0].keys())
    writer.writerows(row.values() for row in rows)


def cmd_verify(args) -> int:
    ns = _parse_range(args.range)
    rows = _sweep_rows(args.family, ns, args.max_n)
    record = _record(
        "verify",
        family=args.family,
        range=[ns.start, ns.stop - 1],
        rows=rows,
        regressions=sum(1 for r in rows if not r["consistent"] and not r["error"]),
        cap_errors=sum(1 for r in rows if r["error"]),
    )
    record["status"] = ("regression" if record["regressions"]
                        else "cap-exceeded" if record["cap_errors"] else "ok")
    if args.format == "csv":
        _write_csv(rows, sys.stdout)
    else:
        _dump_json(record, sys.stdout)
    if record["regressions"]:
        return EXIT_REGRESSION
    if record["cap_errors"]:
        return EXIT_CAP
    return EXIT_OK


def cmd_sweep(args) -> int:
    ns = _parse_range(args.range)
    rows = _sweep_rows(args.family, ns, args.max_n)
    if args.format == "json":
        _dump_json(_record("sweep", family=args.family, range=[ns.start, ns.stop - 1],
                           rows=rows), sys.stdout)
    else:
        _write_csv(rows, sys.stdout)
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
                   help="override the search size cap (default 32)")
    p.add_argument("--allow-disconnected", action="store_true",
                   help="permit statistics on disconnected graphs")


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
    p.add_argument("--family", choices=FAMILY_CHOICES, required=True)
    p.add_argument("--range", required=True, help="inclusive range A..B")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="emit the closed-form table for a family")
    p.add_argument("--family", choices=FAMILY_CHOICES, required=True)
    p.add_argument("--range", required=True, help="inclusive range A..B")
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
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
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (gio.FormatError, graphs.GraphError, stats.ColouringMismatchError,
            search.DisconnectedGraphError, search.NoBColouringError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except search.SearchCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
