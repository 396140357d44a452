import io
import json
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout


import bchrom as b
from bchrom.cli import main


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


def test_exit_code_invalid_colouring(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 1\n1 2\n")
    code, _, err = run_cli("stats", "--family", "path", "--n", "2",
                           "--colouring", str(bad))
    assert code == 2 and "twice" in err


def test_exit_code_io_failure(tmp_path):
    code, _, _ = run_cli("stats", "--graph", str(tmp_path / "missing.col"))
    assert code == 1


def test_exit_code_search_cap():
    code, _, err = run_cli("stats", "--family", "path", "--n", "40")
    assert code == 3 and "cap" in err
    code, _, _ = run_cli("stats", "--family", "path", "--n", "40", "--max-n", "64")
    assert code == 0


def test_disconnected_gate_and_override(tmp_path):
    target = tmp_path / "two.col"
    target.write_text("p edge 4 2\ne 1 2\ne 3 4\n")
    code, _, err = run_cli("stats", "--graph", str(target), "--graph-format", "dimacs")
    assert code == 2 and "disconnected" in err
    code, out, _ = run_cli("stats", "--graph", str(target),
                           "--graph-format", "dimacs", "--allow-disconnected")
    assert code == 0 and json.loads(out)["chi"] == 2


def test_verify_ok_and_deterministic():
    args = ("verify", "--family", "wheel", "--range", "4..7")
    code1, out1, _ = run_cli(*args)
    code2, out2, _ = run_cli(*args)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()
    record = json.loads(out1)
    assert record["status"] == "ok" and record["regressions"] == 0


def test_verify_flags_known_errata_but_passes():
    code, out, _ = run_cli("verify", "--family", "closed-ladder", "--range", "3..8")
    assert code == 0
    record = json.loads(out)
    flagged = [row["n"] for row in record["rows"] if row["errata"]]
    assert flagged == [3, 5, 6, 7]


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


def test_verify_cap_exit_code():
    code, out, _ = run_cli("verify", "--family", "path", "--range", "2..6",
                           "--max-n", "4")
    assert code == 3
    assert json.loads(out)["status"] == "cap-exceeded"


def test_sweep_csv():
    code, out, _ = run_cli("sweep", "--family", "complete", "--range", "1..5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("family,n,phi,")
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


def test_cli_bytes_are_pinned():
    cases = [
        (("stats", "--family", "sunlet", "--n", "5"), 0, PINNED_SUNLET5_JSON),
        (("stats", "--family", "sunlet", "--n", "5", "--format", "csv"), 0,
         PINNED_SUNLET5_CSV),
        (("sweep", "--family", "closed-ladder", "--range", "3..8"), 0,
         PINNED_CLOSED_LADDER_SWEEP),
        # cap overrun: the second row has empty (None) search cells
        (("verify", "--family", "path", "--range", "5..6", "--max-n", "5",
          "--format", "csv"), 3, PINNED_PATH_VERIFY_CAPPED_CSV),
    ]
    for argv, want_code, want_out in cases:
        code, out, _ = run_cli(*argv)
        assert (code, out) == (want_code, want_out), argv
