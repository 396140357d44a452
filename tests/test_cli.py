import dataclasses
import io
import json
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest

import bchrom as b
from bchrom.cli import _rat, main
from bchrom.closed_forms import ClosedFormEntry


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_gen_dimacs_sunlet(tmp_path):
    target = tmp_path / "s4.col"
    code, out, _ = run_cli("gen", "--family", "sunlet", "--n", "4",
                           "--format", "dimacs", "--out", str(target))
    assert code == 0 and out == ""
    assert b.read_graph(target, "dimacs") == b.sunlet(4)


def test_gen_closed_ladder_edgelist_stdout():
    code, out, _ = run_cli("gen", "--family", "closed-ladder", "--n", "3")
    assert code == 0
    assert b.parse_graph(out, "edgelist") == b.closed_ladder(3)


def test_gen_trivial_graph_warns():
    code, out, err = run_cli("gen", "--family", "path", "--n", "1")
    assert code == 0
    assert err == "warning: trivial single-vertex graph\n"
    assert b.parse_graph(out, "edgelist").n == 1
    # like every other warning, -W ignore silences it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, quiet_out, err = run_cli("gen", "--family", "path", "--n", "1")
    assert code == 0 and err == "" and quiet_out == out


def test_trivial_graph_warning_is_one_plain_line():
    code, out, err = run_cli("stats", "--family", "complete", "--n", "1")
    assert code == 0
    assert err == "warning: trivial graph: statistics are degenerate\n"
    record = json.loads(out)
    assert (record["chi"], record["phi"], record["min"]["colouring"]) == (1, 1, [1])
    code, out, err = run_cli("sweep", "--family", "complete", "--range", "1..2")
    assert code == 0
    assert err == "warning: trivial graph: statistics are degenerate\n"
    assert out == (
        "family,n,phi,printed_mean,printed_variance,corrected_mean,corrected_variance,"
        "search_mean,search_variance,errata,consistent,note,error\n"
        "complete,1,1,1,0,1,0,1,0,False,True,,\n"
        "complete,2,2,3/2,1/4,3/2,1/4,3/2,1/4,False,True,,\n")
    # the active filters still apply, so -W ignore silences the line
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, _, err = run_cli("stats", "--family", "complete", "--n", "1")
    assert code == 0 and err == ""


def test_gen_complete_bipartite_and_random():
    code, out, _ = run_cli("gen", "--family", "complete-bipartite",
                           "--n", "2", "--n2", "3")
    assert code == 0 and b.parse_graph(out, "edgelist") == b.complete_bipartite(2, 3)
    code1, out1, _ = run_cli("gen", "--family", "random", "--n", "7", "--seed", "5")
    code2, out2, _ = run_cli("gen", "--family", "random", "--n", "7", "--seed", "5")
    assert code1 == code2 == 0 and out1 == out2
    assert b.parse_graph(out1, "edgelist").connected


def test_stats_with_colouring_file(tmp_path):
    colouring = tmp_path / "c.txt"
    colouring.write_text("2\n1 1\n2 2\n3 1\n")
    code, out, _ = run_cli("stats", "--family", "path", "--n", "3",
                           "--colouring", str(colouring))
    assert code == 0
    record = json.loads(out)
    assert record["mean"] == {"num": 4, "den": 3}
    assert record["variance"] == {"num": 2, "den": 9}
    assert record["proper"] and record["b_colouring"]
    assert record["classes_without_b_vertex"] == []


def test_byte_order_mark_is_accepted(tmp_path):
    # Windows editors save UTF-8 with a leading byte-order mark; each file
    # gives the bytes its unmarked copy gives
    files = {"g.txt": "3 2\n1 2\n2 3\n", "g.col": "p edge 3 2\ne 1 2\ne 2 3\n",
             "c.txt": "2\n1 1\n2 2\n3 1\n"}

    def runs(mark):
        for name, text in files.items():
            (tmp_path / name).write_text(mark + text, encoding="utf-8")
        return [run_cli("stats", "--graph", str(tmp_path / "g.txt")),
                run_cli("stats", "--graph", str(tmp_path / "g.col"), "--graph-format", "dimacs"),
                run_cli("stats", "--family", "path", "--n", "3",
                        "--colouring", str(tmp_path / "c.txt"))]

    unmarked = runs("")
    assert [code for code, _, _ in unmarked] == [0, 0, 0]
    assert runs("\ufeff") == unmarked


def test_stats_with_many_declared_colours(tmp_path):
    # each class's b-vertex test is linear in the degree, not in k
    colouring = tmp_path / "c.txt"
    colouring.write_text("20000\n1 1\n2 2\n3 1\n")
    start = time.perf_counter()
    code, out, _ = run_cli("stats", "--family", "path", "--n", "3",
                           "--colouring", str(colouring))
    assert time.perf_counter() - start < 10
    assert code == 0
    assert json.loads(out)["classes_without_b_vertex"] == list(range(1, 20001))


def test_stats_identifies_failing_classes(tmp_path):
    colouring = tmp_path / "c.txt"
    colouring.write_text("3\n1 1\n2 2\n3 3\n4 2\n")
    code, out, _ = run_cli("stats", "--family", "cycle", "--n", "4",
                           "--colouring", str(colouring))
    assert code == 0
    record = json.loads(out)
    assert record["proper"] and not record["b_colouring"]
    assert record["classes_without_b_vertex"] == [1, 3]


def test_stats_full_report_record():
    code, out, _ = run_cli("stats", "--family", "wheel", "--n", "4")
    assert code == 0
    record = json.loads(out)
    assert record["chi"] == 3 and record["phi"] == 3
    assert record["min"]["mean"] == {"num": 9, "den": 5}
    assert record["min"]["variance"] == {"num": 14, "den": 25}
    assert record["min"]["strengths"] == [2, 2, 1]


def test_stats_reads_graph_file(tmp_path):
    target = tmp_path / "g.col"
    b.write_graph(b.cycle(5), target, "dimacs")
    code, out, _ = run_cli("stats", "--graph", str(target),
                           "--graph-format", "dimacs")
    assert code == 0
    assert json.loads(out)["phi"] == 3


def test_stats_csv_output():
    code, out, _ = run_cli("stats", "--family", "path", "--n", "6",
                           "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    record = dict(zip(header.split(","), row.split(",")))
    assert record["min.mean"] == "5/3" and record["phi"] == "3"


def test_phi_text_and_json():
    code, out, _ = run_cli("phi", "--family", "sunlet", "--n", "5")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run_cli("phi", "--family", "sunlet", "--n", "5",
                           "--format", "json")
    assert code == 0 and json.loads(out)["phi"] == 3


def test_json_default_rejects_what_is_not_a_fraction():
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        json.dumps({"x": object()}, default=_rat)


def test_exit_code_usage_errors():
    code, _, err = run_cli("stats", "--family", "path")  # missing --n
    assert code == 2 and "n" in err
    code, _, _ = run_cli("stats")
    assert code == 2
    code, _, _ = run_cli("gen", "--family", "nonsense", "--n", "3")
    assert code == 2
    code, _, _ = run_cli("verify", "--family", "path", "--range", "5")
    assert code == 2
    code, _, _ = run_cli("gen", "--family", "complete-bipartite", "--n", "2")
    assert code == 2
    code, _, err = run_cli("verify", "--family", "path", "--range", "5..3")
    assert code == 2 and err == "error: empty range '5..3'\n"
    code, _, err = run_cli("stats", "--family", "path", "--n", "2", "--graph", "g.col")
    assert code == 2 and err == "error: give either --family or --graph, not both\n"


def test_exit_code_invalid_colouring(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 1\n1 2\n")
    code, _, err = run_cli("stats", "--family", "path", "--n", "2",
                           "--colouring", str(bad))
    assert code == 2 and "twice" in err


def test_exit_code_io_failure(tmp_path):
    code, _, _ = run_cli("stats", "--graph", str(tmp_path / "missing.col"))
    assert code == 1


def test_exit_code_undecodable_graph_file(tmp_path):
    target = tmp_path / "g.txt"
    target.write_bytes(b"\xff\xfe3 2\n1 2\n2 3\n")
    code, out, err = run_cli("phi", "--graph", str(target))
    # a UnicodeDecodeError is malformed input, not an I/O failure
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_exit_code_directory_as_graph(tmp_path):
    code, out, err = run_cli("phi", "--graph", str(tmp_path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_gen_out_writes_the_stdout_bytes(tmp_path):
    target = tmp_path / "w5.col"
    argv = ("gen", "--family", "wheel", "--n", "5", "--format", "dimacs")
    code, out, _ = run_cli(*argv)
    file_code, file_out, _ = run_cli(*argv, "--out", str(target))
    assert code == file_code == 0 and file_out == ""
    assert target.read_bytes() == out.encode()


def test_exit_code_search_cap():
    code, _, err = run_cli("stats", "--family", "path", "--n", "40")
    assert code == 3 and "cap" in err
    code, _, _ = run_cli("stats", "--family", "path", "--n", "40", "--max-n", "64")
    assert code == 0


def test_cap_below_one_is_usage_error():
    for argv in (("phi", "--family", "path", "--n", "3", "--max-n", "0"),
                 ("verify", "--family", "path", "--range", "2..4", "--max-n", "0")):
        code, out, err = run_cli(*argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_family_cap_checked_before_building(monkeypatch, tmp_path):
    real = b.graphs.build_graph

    def capped_build(n, edges):
        assert n <= 32, "built an over-cap graph"
        return real(n, edges)

    monkeypatch.setattr(b.graphs, "build_graph", capped_build)
    for argv, vertices in [(["stats", "--family", "complete", "--n", "1000"], 1000),
                           (["phi", "--family", "sunlet", "--n", "17"], 34),
                           (["stats", "--family", "wheel", "--n", "32", "--format", "csv"], 33)]:
        code, out, err = run_cli(*argv)
        assert (code, out, err) == (3, "", f"error: graph has {vertices} vertices, cap is 32\n")
    code, _, err = run_cli("phi", "--family", "cycle", "--n", "40", "--max-n", "39")
    assert (code, err) == (3, "error: graph has 40 vertices, cap is 39\n")
    # an n the family rejects is still reported as such, cap or no cap
    code, _, err = run_cli("phi", "--family", "cycle", "--n", "2", "--max-n", "1")
    assert (code, err) == (2, "error: cycle requires n >= 3\n")
    for family in ("sunlet", "closed-ladder"):
        code, out, err = run_cli("stats", "--family", family, "--n", "2")
        assert (code, out, err) == (2, "", f"error: {family} requires cycle length n >= 3\n")
    # --colouring has no cap, so its graph is built whatever its size
    monkeypatch.setattr(b.graphs, "build_graph", real)
    target = tmp_path / "path40.txt"
    target.write_text("2\n" + "".join(f"{v} {2 - v % 2}\n" for v in range(1, 41)))
    code, out, _ = run_cli("stats", "--family", "path", "--n", "40", "--colouring", str(target))
    assert code == 0 and json.loads(out)["b_colouring"] is True


def test_colouring_length_checked_before_building(monkeypatch, tmp_path):
    def no_build(n, edges):
        raise AssertionError("built the graph")

    target = tmp_path / "five.txt"
    target.write_text("2\n1 1\n2 2\n3 1\n4 2\n5 1\n")
    monkeypatch.setattr(b.graphs, "build_graph", no_build)
    for family, n, vertices in [("complete", "3000", 3000), ("wheel", "5", 6),
                                ("sunlet", "40", 80)]:
        code, out, err = run_cli("stats", "--family", family, "--n", n,
                                 "--colouring", str(target))
        assert (code, out, err) == (
            2, "", f"error: colouring covers 5 vertices, graph has {vertices}\n")


def test_disconnected_gate_and_override(tmp_path):
    target = tmp_path / "two.col"
    target.write_text("p edge 4 2\ne 1 2\ne 3 4\n")
    # the CLI names its flag; the library names its keyword
    line = "error: graph is disconnected; pass --allow-disconnected to override\n"
    for command in ("stats", "phi"):
        code, out, err = run_cli(command, "--graph", str(target), "--graph-format", "dimacs")
        assert (code, out, err) == (2, "", line)
    with pytest.raises(b.DisconnectedGraphError,
                       match=r"^graph is disconnected; pass allow_disconnected=True to override$"):
        b.b_chromatic_number(b.read_graph(target, "dimacs"))
    code, out, _ = run_cli("stats", "--graph", str(target),
                           "--graph-format", "dimacs", "--allow-disconnected")
    assert code == 0 and json.loads(out)["chi"] == 2


def test_verify_regression_exit_code(monkeypatch):
    from fractions import Fraction

    import bchrom.closed_forms as cf

    real = cf.corrected_value

    def broken(family, n):
        cm, cv, note = real(family, n)
        if cf.Family(family) is cf.Family.PATH and n == 5:
            return cm + Fraction(1, 7), cv, note
        return cm, cv, note

    monkeypatch.setattr(cf, "corrected_value", broken)
    code, out, _ = run_cli("verify", "--family", "path", "--range", "2..6")
    assert code == 4
    assert json.loads(out)["status"] == "regression"
    # sweep prints the same rows without the verdict, and exits 0
    code, sweep_out, _ = run_cli("sweep", "--family", "path", "--range", "2..6",
                                 "--format", "json")
    assert code == 0
    assert json.loads(sweep_out)["rows"] == json.loads(out)["rows"]


def test_verify_cap_exit_code():
    code, out, _ = run_cli("verify", "--family", "path", "--range", "2..6",
                           "--max-n", "4")
    assert code == 3
    assert json.loads(out)["status"] == "cap-exceeded"
    # sweep prints the capped rows as verify does, and exits 0
    argv = ("--family", "path", "--range", "5..6", "--max-n", "5", "--format", "csv")
    code, out, _ = run_cli("verify", *argv)
    sweep_code, sweep_out, _ = run_cli("sweep", *argv)
    assert (code, sweep_code) == (3, 0)
    assert sweep_out == out == PINNED_PATH_VERIFY_CAPPED_CSV


def test_sweep_csv():
    code, out, _ = run_cli("sweep", "--family", "complete", "--range", "1..5")
    assert code == 0
    lines = out.strip().splitlines()
    # the columns are ClosedFormEntry's fields, in order
    assert lines[0] == ",".join(f.name for f in dataclasses.fields(ClosedFormEntry))
    assert len(lines) == 6
    assert "complete,4,4,5/2,5/4,5/2,5/4,5/2,5/4,False,True,," in lines


def test_errata_subcommand():
    from bchrom.closed_forms import errata_table_csv

    code, out, _ = run_cli("errata")
    assert code == 0
    assert out == errata_table_csv()


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "bchrom", "phi", "--family", "cycle", "--n", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"


# Exact stdout, recorded from an earlier release: running a command twice
# cannot catch a change in its bytes between versions, these can.
PINNED_SUNLET5_JSON = """\
{
  "tool": "bchrom",
  "version": "0.1.0",
  "command": "stats",
  "graph": "sunlet(5)",
  "parameters": {
    "max_n": null,
    "allow_disconnected": false
  },
  "vertices": 10,
  "edges": 10,
  "chi": 3,
  "phi": 3,
  "min": {
    "mean": {
      "num": 8,
      "den": 5
    },
    "variance": {
      "num": 11,
      "den": 25
    },
    "strengths": [
      5,
      4,
      1
    ],
    "colouring": [
      1,
      2,
      1,
      2,
      3,
      2,
      1,
      2,
      1,
      1
    ]
  },
  "max": {
    "mean": {
      "num": 12,
      "den": 5
    },
    "variance": {
      "num": 11,
      "den": 25
    },
    "strengths": [
      1,
      4,
      5
    ],
    "colouring": [
      1,
      2,
      3,
      2,
      3,
      3,
      3,
      2,
      3,
      2
    ]
  }
}
"""

PINNED_SUNLET5_CSV = """\
tool,version,command,graph,parameters.max_n,parameters.allow_disconnected,vertices,edges,chi,phi,min.mean,min.variance,min.strengths,min.colouring,max.mean,max.variance,max.strengths,max.colouring
bchrom,0.1.0,stats,sunlet(5),,False,10,10,3,3,8/5,11/25,5 4 1,1 2 1 2 3 2 1 2 1 1,12/5,11/25,1 4 5,1 2 3 2 3 3 3 2 3 2
"""

PINNED_CLOSED_LADDER_SWEEP = """\
family,n,phi,printed_mean,printed_variance,corrected_mean,corrected_variance,search_mean,search_variance,errata,consistent,note,error
closed-ladder,3,3,5,2,2,2/3,2,2/3,True,True,printed mean 5 exceeds the largest colour index; the uniform three-class colouring gives mean 2 and variance 2/3 (the printed variance 2 is also inconsistent with that same colouring),
closed-ladder,4,4,5/2,5/4,5/2,5/4,5/2,5/4,False,True,,
closed-ladder,5,4,23/10,131/144,23/10,121/100,23/10,121/100,True,True,"printed variance list is misaligned: class sizes (3,3,2,2) give 121/100 at n = 5",
closed-ladder,6,4,23/12,131/144,25/12,131/144,25/12,131/144,True,True,"printed mean 23/12 corresponds to class sizes (5,4,2,1), which admit no b-colouring; the minimum uses (4,4,3,1) with mean 25/12. The printed variance list has no n = 6 branch; the misaligned value 131/144 happens to equal the corrected variance",
closed-ladder,7,4,29/14,181/196,2,6/7,2,6/7,True,True,"printed class sizes (n-2, n-3, 4, 1) are not mean-minimal for odd n >= 7: sizes (n-2, n-2, 3, 1) admit a b-colouring, so the even-case formulas hold for odd n as well",
closed-ladder,8,4,31/16,207/256,31/16,207/256,31/16,207/256,False,True,,
"""

PINNED_PATH_VERIFY_CAPPED_CSV = """\
family,n,phi,printed_mean,printed_variance,corrected_mean,corrected_variance,search_mean,search_variance,errata,consistent,note,error
path,5,3,9/5,14/25,9/5,14/25,9/5,14/25,False,True,,
path,6,,5/3,5/9,5/3,5/9,,,False,False,,"graph has 6 vertices, cap is 5"
"""


PINNED_CYCLE4_COLOURING_JSON = """\
{
  "tool": "bchrom",
  "version": "0.1.0",
  "command": "stats",
  "graph": "cycle(4)",
  "vertices": 4,
  "edges": 4,
  "k": 2,
  "strengths": [
    2,
    2
  ],
  "pmf": [
    {
      "num": 1,
      "den": 2
    },
    {
      "num": 1,
      "den": 2
    }
  ],
  "mean": {
    "num": 3,
    "den": 2
  },
  "variance": {
    "num": 1,
    "den": 4
  },
  "proper": true,
  "uses_all_colours": true,
  "b_colouring": true,
  "classes_without_b_vertex": []
}
"""

PINNED_CYCLE4_COLOURING_CSV = """\
tool,version,command,graph,vertices,edges,k,strengths,pmf,mean,variance,proper,uses_all_colours,b_colouring,classes_without_b_vertex
bchrom,0.1.0,stats,cycle(4),4,4,2,2 2,1/2 1/2,3/2,1/4,True,True,True,
"""

PINNED_PATH_VERIFY_CAPPED_JSON = """\
{
  "tool": "bchrom",
  "version": "0.1.0",
  "command": "verify",
  "family": "path",
  "range": [
    5,
    6
  ],
  "rows": [
    {
      "family": "path",
      "n": 5,
      "phi": 3,
      "printed_mean": {
        "num": 9,
        "den": 5
      },
      "printed_variance": {
        "num": 14,
        "den": 25
      },
      "corrected_mean": {
        "num": 9,
        "den": 5
      },
      "corrected_variance": {
        "num": 14,
        "den": 25
      },
      "search_mean": {
        "num": 9,
        "den": 5
      },
      "search_variance": {
        "num": 14,
        "den": 25
      },
      "errata": false,
      "consistent": true,
      "note": "",
      "error": ""
    },
    {
      "family": "path",
      "n": 6,
      "phi": null,
      "printed_mean": {
        "num": 5,
        "den": 3
      },
      "printed_variance": {
        "num": 5,
        "den": 9
      },
      "corrected_mean": {
        "num": 5,
        "den": 3
      },
      "corrected_variance": {
        "num": 5,
        "den": 9
      },
      "search_mean": null,
      "search_variance": null,
      "errata": false,
      "consistent": false,
      "note": "",
      "error": "graph has 6 vertices, cap is 5"
    }
  ],
  "regressions": 0,
  "cap_errors": 1,
  "status": "cap-exceeded"
}
"""


PINNED_ERRATA_CSV = """\
family,applies_to,printed,corrected,note
path,n = 4,"mean 7/4, variance 11/16","mean 3/2, variance 1/4","the 4-path admits no b-colouring with 3 colours (both size-1 classes would need interior b-vertices, leaving the endpoint pair without one), so the 2-colour statistics apply"
cycle,even n >= 6,variance (n^2+16n+36)/(4n^2),variance (n^2+16n-36)/(4n^2),"constant term of the printed variance has the wrong sign; the printed class sizes ((n-2)/2, (n-2)/2, 2) themselves yield (n^2+16n-36)/(4n^2)"
sunlet,n = 5,"mean 17/10, variance 61/100","mean 8/5, variance 11/25","printed class sizes (5,3,2) are not mean-minimal: sizes (5,4,1) admit a b-colouring with mean 8/5"
sunlet,n >= 6,"mean (3n+7)/(2n), variance (n^2+35n-49)/(4n^2)","mean (3n+6)/(2n), variance (n^2+32n-36)/(4n^2)","printed class sizes (n-1, n-3, 2, 2) are not mean-minimal: sizes (n, n-4, 2, 2) admit a b-colouring, giving mean (3n+6)/(2n) and variance (n^2+32n-36)/(4n^2)"
closed-ladder,n = 3,"mean 5, variance 2","mean 2, variance 2/3",printed mean 5 exceeds the largest colour index; the uniform three-class colouring gives mean 2 and variance 2/3 (the printed variance 2 is also inconsistent with that same colouring)
closed-ladder,n = 5,variance 131/144,variance 121/100,"printed variance list is misaligned: class sizes (3,3,2,2) give 121/100 at n = 5"
closed-ladder,n = 6,mean 23/12 (variance branch missing),"mean 25/12, variance 131/144","printed mean 23/12 corresponds to class sizes (5,4,2,1), which admit no b-colouring; the minimum uses (4,4,3,1) with mean 25/12. The printed variance list has no n = 6 branch; the misaligned value 131/144 happens to equal the corrected variance"
closed-ladder,odd n >= 7,"mean (3n+8)/(2n), variance (n^2+28n-64)/(4n^2)","mean (3n+7)/(2n), variance (n^2+24n-49)/(4n^2)","printed class sizes (n-2, n-3, 4, 1) are not mean-minimal for odd n >= 7: sizes (n-2, n-2, 3, 1) admit a b-colouring, so the even-case formulas hold for odd n as well"
"""


PINNED_COMPLETE_SWEEP_JSON = """\
{
  "tool": "bchrom",
  "version": "0.1.0",
  "command": "sweep",
  "family": "complete",
  "range": [
    2,
    3
  ],
  "rows": [
    {
      "family": "complete",
      "n": 2,
      "phi": 2,
      "printed_mean": {
        "num": 3,
        "den": 2
      },
      "printed_variance": {
        "num": 1,
        "den": 4
      },
      "corrected_mean": {
        "num": 3,
        "den": 2
      },
      "corrected_variance": {
        "num": 1,
        "den": 4
      },
      "search_mean": {
        "num": 3,
        "den": 2
      },
      "search_variance": {
        "num": 1,
        "den": 4
      },
      "errata": false,
      "consistent": true,
      "note": "",
      "error": ""
    },
    {
      "family": "complete",
      "n": 3,
      "phi": 3,
      "printed_mean": {
        "num": 2,
        "den": 1
      },
      "printed_variance": {
        "num": 2,
        "den": 3
      },
      "corrected_mean": {
        "num": 2,
        "den": 1
      },
      "corrected_variance": {
        "num": 2,
        "den": 3
      },
      "search_mean": {
        "num": 2,
        "den": 1
      },
      "search_variance": {
        "num": 2,
        "den": 3
      },
      "errata": false,
      "consistent": true,
      "note": "",
      "error": ""
    }
  ]
}
"""


def test_cli_bytes_are_pinned(tmp_path):
    colouring = tmp_path / "c.txt"
    colouring.write_text("2\n1 1\n2 2\n3 1\n4 2\n")
    cases = [
        (("stats", "--family", "sunlet", "--n", "5"), 0, PINNED_SUNLET5_JSON),
        (("stats", "--family", "sunlet", "--n", "5", "--format", "csv"), 0,
         PINNED_SUNLET5_CSV),
        (("sweep", "--family", "closed-ladder", "--range", "3..8"), 0,
         PINNED_CLOSED_LADDER_SWEEP),
        # cap overrun: the second row has empty (None) search cells
        (("verify", "--family", "path", "--range", "5..6", "--max-n", "5",
          "--format", "csv"), 3, PINNED_PATH_VERIFY_CAPPED_CSV),
        # JSON null for the same missing cells
        (("verify", "--family", "path", "--range", "5..6", "--max-n", "5"), 3,
         PINNED_PATH_VERIFY_CAPPED_JSON),
        # a list of rationals: the p.m.f. of a colouring
        (("stats", "--family", "cycle", "--n", "4", "--colouring", str(colouring)), 0,
         PINNED_CYCLE4_COLOURING_JSON),
        (("stats", "--family", "cycle", "--n", "4", "--colouring", str(colouring),
          "--format", "csv"), 0, PINNED_CYCLE4_COLOURING_CSV),
        # the errata registry, one row per rule
        (("errata",), 0, PINNED_ERRATA_CSV),
        # a sweep as JSON: each row's rationals as num/den pairs
        (("sweep", "--family", "complete", "--range", "2..3", "--format", "json"), 0,
         PINNED_COMPLETE_SWEEP_JSON),
    ]
    for argv, want_code, want_out in cases:
        code, out, _ = run_cli(*argv)
        assert (code, out) == (want_code, want_out), argv
