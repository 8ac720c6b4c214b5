import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from cclab.cli import _render, main
from cclab import Rectangle, SearchLimits, format_bfn, verify
from cclab.rectangles import format_rect

from oracles import random_sign


def run(argv):
    return main(argv)


def sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def refusal(argv, capsys):
    """The one stderr line of argv, which must exit 1 writing nothing
    to stdout."""
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    return lines[0]


# ----------------------------------------------------------- gen

def test_gen_eq4_content(tmp_path):
    out = tmp_path / "eq4.bfn"
    assert run(["gen", "--family", "eq", "--m", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "4 4"
    assert lines[1:5] == ["1000", "0100", "0010", "0001"]


def test_gen_random_deterministic(tmp_path):
    a, b = tmp_path / "a.bfn", tmp_path / "b.bfn"
    for out in (a, b):
        assert run(["gen", "--family", "random", "--m", "6", "--seed", "7",
                    "--out", str(out)]) == 0
    assert sha(a) == sha(b)


def test_module_entry_runs_main(capsys):
    argv = ["gen", "--family", "eq", "--m", "2"]
    assert run(argv) == 0
    expected = capsys.readouterr().out
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, (str(src),
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "cclab", *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")


def test_gen_requires_one_source(tmp_path, capsys):
    assert run(["gen", "--out", str(tmp_path / "x.bfn")]) == 1
    assert "input source" in capsys.readouterr().err


# ----------------------------------------------------------- measure

def test_measure_xor2(capsys):
    code = run(["measure", "--family", "xor", "--m", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rank: 1" in out
    assert "D_lo: 2" in out and "D_hi: 2" in out
    assert "C_lo: 4" in out


def test_measure_const(capsys):
    code = run(["measure", "--family", "const", "--m", "3", "--value", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "D_lo: 0" in out and "C_lo: 1" in out


def test_measure_eq4_csv(tmp_path):
    src = tmp_path / "eq4.bfn"
    run(["gen", "--family", "eq", "--m", "4", "--out", str(src)])
    out = tmp_path / "row.csv"
    code = run(["measure", "--in", str(src), "--format", "csv",
                "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#v1 name,rows,cols,rank,")
    row = lines[1].split(",")
    assert row[0] == "eq4" and row[3] == "4"  # rank
    assert row[6] == "3" and row[7] == "3"    # D_lo, D_hi


def test_measure_csv_quotes_a_label_with_commas_and_quotes(tmp_path):
    # A field holding a comma, a quote or a line break is quoted, with
    # each quote doubled (RFC 4180); the other fields and the header
    # read as before.
    rows = []
    for label in ('a,b "c"', "plain"):
        src = tmp_path / "f.bfn"
        src.write_text(f"2 2\n01\n10\n# {label}\n")
        out = tmp_path / "row.csv"
        assert run(["measure", "--in", str(src), "--format", "csv",
                    "--out", str(out)]) == 0
        text = out.read_text()
        head, body = text.split("\n", 1)
        assert head.startswith("#v1 name,rows,")
        rows.append(list(csv.reader(io.StringIO(body))))
    quoted, plain = rows
    assert len(quoted) == 1 and len(quoted[0]) == len(head.split(","))
    assert quoted[0] == ['a,b "c"'] + plain[0][1:]
    assert text.endswith("\nplain," + ",".join(plain[0][1:]) + "\n")
    lines = _render([{"a": "x\r\ny", "b": 1}, {"a": "", "b": None}], "csv")
    assert list(csv.reader(io.StringIO(lines.split("\n", 1)[1]))) == [
        ["x\r\ny", "1"], ["", ""]]


def test_measure_ip8_rank(capsys):
    code = run(["measure", "--family", "ip", "--m", "8", "--limits",
                "node=200000"])
    out = capsys.readouterr().out
    assert "rank: 8" in out
    assert code in (0, 2)


def test_measure_root_bounds_that_meet_are_exact(capsys):
    code = run(["measure", "--family", "gt", "--m", "8", "--limits",
                "node=1"])
    out = capsys.readouterr().out
    assert "D_lo: 4" in out and "D_hi: 4" in out
    assert "D_status: exact" in out
    assert code == 0


def test_measure_inconclusive_exit_2(tmp_path, capsys):
    f = random_sign(6, 6, 99)
    src = tmp_path / "r.bfn"
    src.write_text(format_bfn(f))
    code = run(["measure", "--in", str(src), "--limits", "node=3"])
    out = capsys.readouterr().out
    assert code == 2
    assert "interval" in out or "bounds" in out


def test_measure_parse_error_names_position(tmp_path, capsys):
    bad = tmp_path / "bad.bfn"
    bad.write_text("2 2\n0x\n00\n")
    assert run(["measure", "--in", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "col 2" in err


def test_bfn_over_cap_is_user_error(tmp_path, capsys):
    # The header alone is over the cell cap; nothing is allocated for it.
    src = tmp_path / "huge.bfn"
    src.write_text("3 1000000000000\n0\n1\n0\n")
    assert run(["gen", "--in", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "desk-scale cap" in lines[0]


def test_lift_over_cap_is_user_error(capsys):
    # The lifted cell count is not built in full: 3**200000 cells would
    # be too long an integer to print.
    assert run(["report", "--family", "eq", "--m", "3", "--n", "100000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "n=100000" in lines[0] and "desk-scale cap" in lines[0]


def test_one_cell_lift_order_over_cap_is_user_error(capsys):
    # A 1x1 lift never reaches the cell cap; its order is capped instead,
    # before anything is built.
    start = time.perf_counter()
    assert run(["report", "--family", "const", "--m", "1", "--value", "1",
                "--n", "1000000000"]) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "n=1000000000" in lines[0]


# ----------------------------------------------------------- extract

def test_extract_identity_n1(tmp_path, capsys):
    src = tmp_path / "eq3.bfn"
    run(["gen", "--family", "eq", "--m", "3", "--out", str(src)])
    rect = tmp_path / "r.rect"
    rect.write_text(format_rect(Rectangle((0, 1), (2,))))
    code = run(["extract", "--in", str(src), "--n", "1", "--rect", str(rect)])
    out = capsys.readouterr().out
    assert code == 0
    assert "T_size: 2" in out and "R_size: 2" in out


def test_extract_guarantee_line_k6_n2(tmp_path, capsys):
    src = tmp_path / "c8.bfn"
    run(["gen", "--family", "const", "--m", "8", "--value", "0",
         "--out", str(src)])
    rect = tmp_path / "r.rect"
    rect.write_text(format_rect(Rectangle(range(8), range(8))))
    code = run(["extract", "--in", str(src), "--n", "2", "--rect", str(rect)])
    out = capsys.readouterr().out
    assert code == 0
    assert "|T| >= 2^(k/n - 2) = 2" in out


def test_extract_eq2_n2_json(tmp_path, capsys):
    src = tmp_path / "eq2.bfn"
    run(["gen", "--family", "eq", "--m", "2", "--out", str(src)])
    rect = tmp_path / "r.rect"
    rect.write_text(format_rect(Rectangle((0, 3), (0, 3))))
    code = run(["extract", "--in", str(src), "--n", "2", "--rect", str(rect),
                "--format", "json"])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["R_size"] == 4 and "pass" in record["check"]


def test_extract_rejects_non_monochromatic(tmp_path, capsys):
    src = tmp_path / "eq2.bfn"
    run(["gen", "--family", "eq", "--m", "2", "--out", str(src)])
    rect = tmp_path / "r.rect"
    rect.write_text(format_rect(Rectangle((0, 1), (0, 1))))
    code = run(["extract", "--in", str(src), "--n", "2", "--rect", str(rect)])
    assert code == 1
    assert "cell (" in capsys.readouterr().err


def test_extract_checks_a_stated_color(tmp_path, capsys):
    # Rows {0, 3} x cols {1, 2} of eq2^(+2) have sign -1.
    src = tmp_path / "eq2.bfn"
    run(["gen", "--family", "eq", "--m", "2", "--out", str(src)])
    rect = tmp_path / "r.rect"
    outs = []
    for color, code in (("+1\n", 1), ("-1\n", 0), ("", 0)):
        rect.write_text("0 3\n1 2\n" + color)
        assert run(["extract", "--in", str(src), "--n", "2",
                    "--rect", str(rect)]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
            assert "color +1" in lines[0]
        else:
            assert captured.err == ""
            outs.append(captured.out)
    assert outs[0] == outs[1] and "color: -1" in outs[0]


def test_extract_rejects_negative_index(tmp_path, capsys):
    rect = tmp_path / "neg.rect"
    rect.write_text("-1\n2\n")
    code = run(["extract", "--family", "eq", "--m", "3", "--n", "1",
                "--rect", str(rect)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


# ----------------------------------------------------------- build chain

def test_build_balance_verify_pipeline(tmp_path, capsys):
    src = tmp_path / "eq4.bfn"
    run(["gen", "--family", "eq", "--m", "4", "--out", str(src)])
    proto = tmp_path / "eq4.proto.json"
    assert run(["build", "--in", str(src), "--n", "1", "--mode", "exact",
                "--out", str(proto)]) == 0
    trace = json.loads((tmp_path / "eq4.proto.json.trace.json").read_text())
    assert trace["budgets_ok"] is True
    bal = tmp_path / "eq4.bal.json"
    assert run(["balance", "--in", str(proto), "--out", str(bal)]) == 0
    assert run(["verify", "--in", str(bal), "--matrix", str(src)]) == 0
    capsys.readouterr()


def test_build_reaches_eq32(tmp_path, capsys):
    # eq32 has C(32, 16), about 6 * 10**8, tied maximum rectangles S x S^c;
    # the root maximum-rectangle search takes 18 closures.
    src = tmp_path / "eq32.bfn"
    proto = tmp_path / "eq32.proto.json"
    bal = tmp_path / "eq32.bal.json"
    assert run(["gen", "--family", "eq", "--m", "32", "--out", str(src)]) == 0
    assert run(["build", "--family", "eq", "--m", "32",
                "--out", str(proto)]) == 0
    trace = json.loads((tmp_path / "eq32.proto.json.trace.json").read_text())
    assert trace["budgets_ok"] is True
    assert run(["balance", "--in", str(proto), "--out", str(bal)]) == 0
    assert run(["verify", "--in", str(bal), "--matrix", str(src)]) == 0
    capsys.readouterr()


# SHA-256 of the protocol file, its trace and the balanced protocol of
# `build` then `balance`.  The direct builds of ip8, eq12 and random
# 16x16 seed 1 split on both sides; the lifts split on one side each.
# The exact lift of ip8 records both checks, true, on its 5 split steps.
CONSTRUCTION_PINS = (
    (["--family", "ip", "--m", "8"],
     "c84f4e2fc385dbd9a6587c2a0b72c666cbe440078e8bc05b62f4de03264aec52",
     "3783f6d9183995fa21571fdb5b7e4729efc4e85fd4842eebd70c908240bc8fc1",
     "d41349d39dfd08c0e2fad126c86277b775b2c5ec9d3ddcd749ca6eaf88d69284"),
    (["--family", "eq", "--m", "12"],
     "a0a46af4f9f05071a320b67ef14204c9e757459b2240df9dcf9650fc6d48b7e6",
     "6eb4e3fbbd78868dd1a8188748ce577ca46f79a864e332656c1acb17dcc35f9c",
     "39a24f4c168ab0e422be65cadedddd6ba08ad314cd95e7791e6cad3bcc16d51b"),
    (["--family", "random", "--m", "16", "--seed", "1"],
     "0fe02f03eefdc2bfa1d28477906ff01da7f78d5ace10c521253f8d2a4023c50c",
     "cf54aeef17f03c5cd103a14527f3173e9996b4e33f585916fe45918a72a058bb",
     "f5a2822aa3ab3c4f1c455bab296f7baeb0afcc89febc34101fe8159ca43dd63b"),
    (["--family", "random", "--m", "6", "--seed", "4",
      "--strategy", "lift", "--n", "2"],
     "ea80bb58dc07ed8c356a29184752c184948db7950a25185dc0f2a5d99fc8315a",
     "cf23190005e8f18624f6826d27047433756ab95336baa258f8c2bf365e463242",
     "c3d0d2f89e3593dadeb4446cf781ec0f5f9ffc75d69733f99629f51189688c5e"),
    (["--family", "gt", "--m", "5", "--strategy", "lift", "--n", "2"],
     "ac01cc39ff258fc21604cca4ba29f9b7164ffa4e7b04957babd68ca1d3baef8f",
     "3b79f970245129d64111d1dc1aa0673344a483b4f308679d427aec6a01f08bc4",
     "be9f530611fce0bfc2122f215da6a206edb8cced24aabd598b335f680baa6c45"),
    (["--family", "ip", "--m", "8", "--strategy", "lift", "--mode", "exact"],
     "c84f4e2fc385dbd9a6587c2a0b72c666cbe440078e8bc05b62f4de03264aec52",
     "68b65f6838f1137a8a60f7fc87c1a45caa6783b31b8d105d4b1d2fb04fd862c3",
     "d41349d39dfd08c0e2fad126c86277b775b2c5ec9d3ddcd749ca6eaf88d69284"),
    (["--family", "eq", "--m", "4", "--mode", "exact"],
     "652632160c222c4adac4476aee16918e76ba73bbb1aa1a1582e7bac2ce1e705d",
     "91d6b3c3ae9be5d23825c3e8ba6bbb796a61f1563f3ce2c51f322b08eb15c0b8",
     "9feafaec14bcad26e3d849d24ed14f7136454852517dc7c6442ac7456bb67eea"),
)


def test_construction_outputs_pinned(tmp_path, capsys):
    for flags, *pins in CONSTRUCTION_PINS:
        proto = tmp_path / "p.json"
        bal = tmp_path / "b.json"
        assert run(["build", *flags, "--out", str(proto)]) == 0
        assert run(["balance", "--in", str(proto), "--out", str(bal)]) == 0
        files = (proto, tmp_path / "p.json.trace.json", bal)
        assert [hashlib.sha256(p.read_bytes()).hexdigest()
                for p in files] == pins, flags
    capsys.readouterr()


def test_build_without_out_fails_before_building(monkeypatch, capsys):
    import cclab.cli as cli

    def unused(*args, **kwargs):
        raise AssertionError("built before checking --out")

    monkeypatch.setattr(cli, "xor_power", unused)
    monkeypatch.setattr(cli, "build_protocol", unused)
    assert run(["build", "--family", "eq", "--m", "4", "--mode", "exact"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "requires --out" in lines[0]


def test_build_verifies_once(tmp_path, monkeypatch):
    import cclab.builder as builder

    calls = []

    def counted(tree, f):
        calls.append(f.label)
        return verify(tree, f)

    monkeypatch.setattr(builder, "verify", counted)
    assert run(["build", "--family", "eq", "--m", "4", "--mode", "exact",
                "--out", str(tmp_path / "p.json")]) == 0
    assert calls == ["eq4"]


def test_build_constant_one_leaf(tmp_path):
    src = tmp_path / "c.bfn"
    run(["gen", "--family", "const", "--m", "3", "--value", "1",
         "--out", str(src)])
    proto = tmp_path / "c.proto.json"
    assert run(["build", "--in", str(src), "--out", str(proto),
                "--mode", "exact"]) == 0
    obj = json.loads(proto.read_text())
    assert obj["tree"] == {"output": 1}


def test_verify_mismatch_exit_1(tmp_path, capsys):
    src = tmp_path / "eq4.bfn"
    run(["gen", "--family", "eq", "--m", "4", "--out", str(src)])
    other = tmp_path / "gt4.bfn"
    run(["gen", "--family", "gt", "--m", "4", "--out", str(other)])
    proto = tmp_path / "p.json"
    run(["build", "--in", str(src), "--out", str(proto)])
    assert run(["verify", "--in", str(proto), "--matrix", str(other)]) == 1
    # eq4's tree outputs 1 at (0, 0), where gt4 is 0.
    assert capsys.readouterr().err == (
        "mismatch at (0, 0): protocol 1, function 0\n")


def test_verify_dimension_mismatch_is_user_error(tmp_path, capsys):
    paths = {}
    for m in ("2", "3"):
        paths[m] = tmp_path / f"eq{m}.bfn"
        run(["gen", "--family", "eq", "--m", m, "--out", str(paths[m])])
    proto = tmp_path / "eq2.json"
    run(["build", "--in", str(paths["2"]), "--out", str(proto)])
    assert "index spaces differ" in refusal(
        ["verify", "--in", str(proto), "--matrix", str(paths["3"])], capsys)


def test_protocol_file_wrong_types_are_user_errors(tmp_path, capsys):
    node = {"speaker": "alice", "subset": [0], "child0": {"output": 0},
            "child1": {"output": 1}}
    # A chain 5,000 deep, too deep for the JSON decoder to nest.
    link = '{"speaker": "alice", "subset": [0], "child0": {"output": 0}, ' \
           '"child1": '
    deep = ('{"rows": 2, "cols": 2, "tree": ' + link * 5000
            + '{"output": 1}' + "}" * 5001)
    src = tmp_path / "eq2.bfn"
    run(["gen", "--family", "eq", "--m", "2", "--out", str(src)])
    for text in (json.dumps({"rows": 2, "cols": 2,
                             "tree": dict(node, subset=5)}),
                 json.dumps({"rows": "2", "cols": 2, "tree": node}), deep):
        proto = tmp_path / "bad.json"
        proto.write_text(text)
        for argv in (["balance", "--in", str(proto)],
                     ["verify", "--in", str(proto), "--matrix", str(src)]):
            assert run(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")


def test_protocol_file_over_cap_is_user_error(tmp_path, capsys):
    # 2**25 cells, one row bit over the cap: refused before the index
    # sets are built, where the cap itself, 2**24 cells, is accepted.
    src = tmp_path / "eq2.bfn"
    run(["gen", "--family", "eq", "--m", "2", "--out", str(src)])
    proto = tmp_path / "big.json"
    out = tmp_path / "out.json"
    for rows, code in ((2 ** 12, 0), (2 ** 13, 1)):
        proto.write_text(json.dumps({"rows": rows, "cols": 2 ** 12,
                                     "tree": {"output": 0}}))
        assert run(["balance", "--in", str(proto), "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        if code:
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")
            assert "desk-scale cap" in lines[0]
    assert run(["verify", "--in", str(proto), "--matrix", str(src)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "desk-scale cap" in lines[0]


def test_protocol_file_bad_leaves_are_user_errors(tmp_path, capsys):
    # A leaf is {"output": 0 or 1}.  true and 1.0 must not pass as
    # outputs, nor may a leaf carry node fields (their children would be
    # dropped unread).
    def eq2_file(one):  # a protocol file for eq2, `one` at each 1-leaf
        def bob(y):
            return {"speaker": "bob", "subset": [y],
                    "child0": {"output": 0}, "child1": one}
        tree = {"speaker": "alice", "subset": [0], "child0": bob(1),
                "child1": bob(0)}
        path = tmp_path / "proto.json"
        path.write_text(json.dumps({"rows": 2, "cols": 2, "tree": tree}))
        return path

    src = tmp_path / "eq2.bfn"
    run(["gen", "--family", "eq", "--m", "2", "--out", str(src)])
    assert run(["verify", "--in", str(eq2_file({"output": 1})),
                "--matrix", str(src)]) == 0
    capsys.readouterr()
    out = tmp_path / "out.json"
    for one in ({"output": True}, {"output": 1.0},
                {"output": 1, "speaker": "bob", "subset": [0],
                 "child0": {"output": 0}, "child1": {"output": 1}}):
        proto = eq2_file(one)
        for argv in (["balance", "--in", str(proto), "--out", str(out)],
                     ["verify", "--in", str(proto), "--matrix", str(src),
                      "--out", str(out)]):
            assert run(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")


def test_rare_input_errors_are_one_line(tmp_path, capsys):
    # A tree that is a list, a matrix file with a stray fourth line, and
    # a report with no family.
    proto = tmp_path / "list.json"
    proto.write_text('{"rows":1,"cols":1,"tree":[1]}')
    assert "tree node must be an object" in refusal(
        ["balance", "--in", str(proto)], capsys)
    src = tmp_path / "stray.bfn"
    src.write_text("2 2\n01\n10\n11\n")
    assert "line 4, col 1: unexpected trailing content" in refusal(
        ["measure", "--in", str(src)], capsys)
    assert "report requires --family" in refusal(["report", "--m", "2"],
                                                 capsys)


# ----------------------------------------------------------- report

def test_report_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run(["report", "--family", "eq", "--m", "2,3", "--n", "2",
                "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("#v1 name,rows,cols,rank,D_lo,D_hi,n,C_lo,C_hi,"
                        "logC,rho,degenerate,leaves,balanced_depth")
    assert len(lines) == 3
    assert lines[1].startswith("eq2,2,2,1,2,2,2,")


def test_report_xor_degenerate(tmp_path):
    out = tmp_path / "xor.csv"
    assert run(["report", "--family", "xor", "--m", "2", "--n", "1",
                "--format", "csv", "--out", str(out)]) == 0
    assert ",true," in out.read_text().splitlines()[1]


@pytest.mark.parametrize("sizes", [",", " , ,"])
def test_report_without_sizes_is_user_error(sizes, tmp_path, capsys):
    out = tmp_path / "none.csv"
    assert run(["report", "--family", "eq", "--m", sizes, "--format", "csv",
                "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["report", "--family", "eq", "--m", "2,x"],
    ["measure", "--family", "eq", "--m", "x"],
])
def test_bad_size_names_the_flag(argv, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --m: 'x' is not an integer\n"


def test_parser_keeps_no_state_between_calls(capsys):
    # One parser serves every call of main: a flag given to one call
    # must not carry over to the next.
    eq4 = ["measure", "--family", "eq", "--m", "4"]
    assert run(eq4 + ["--mode", "greedy"]) == 2
    assert "C_status: bounds" in capsys.readouterr().out
    assert run(eq4) == 0
    assert "C_status: exact" in capsys.readouterr().out
    eq2 = ["report", "--family", "eq", "--m", "2"]
    assert run(eq2 + ["--n", "2"]) == 0
    assert "n: 2" in capsys.readouterr().out.splitlines()
    assert run(eq2) == 0
    assert "n: 1" in capsys.readouterr().out.splitlines()
    assert run(eq4 + ["--zap"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("n, message", [("2", "desk-scale cap"),
                                        ("0", "n must be >= 1")],
                         ids=["over_cap", "order_0"])
def test_report_checks_the_lift_before_searching(n, message, monkeypatch,
                                                 capsys):
    # random 128x128 takes seconds in exact_cc; a lift it cannot make
    # is refused before that.
    def no_search(*args, **kwargs):
        raise AssertionError("exact_cc ran before the lift was checked")
    monkeypatch.setattr("cclab.builder.exact_cc", no_search)
    assert message in refusal(["report", "--family", "random", "--seed", "1",
                               "--m", "128", "--n", n], capsys)


def test_report_rerun_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["report", "--family", "random", "--m", "4,5", "--seed", "11",
            "--n", "1", "--format", "csv"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert sha(a) == sha(b)


# ----------------------------------------------------------- numbers

def _reading(reader, tok, tmp_path):
    """The argv of a command whose one hand-read number is tok, read by
    reader."""
    if reader == "bfn":
        src = tmp_path / "in.bfn"
        src.write_text(f"{tok} 4\n0000\n0101\n1111\n", encoding="utf-8")
        return ["gen", "--in", str(src)]
    if reader == "rect":
        rect = tmp_path / "in.rect"
        rect.write_text(f"{tok}\n3\n", encoding="utf-8")
        return ["extract", "--family", "eq", "--m", "4", "--n", "1",
                "--rect", str(rect)]
    if reader == "limits":
        return ["measure", "--family", "eq", "--m", "6",
                "--limits", f"node={tok}"]
    if reader == "measure --m":
        return ["measure", "--family", "eq", "--m", tok]
    if reader == "--n":
        return ["report", "--family", "eq", "--m", "2", "--n", tok]
    if reader == "--seed":
        return ["gen", "--family", "random", "--m", "3", "--seed", tok]
    if reader == "--value":  # a bit: tok with its 3 written as 1
        tok = tok.replace("3", "1").translate({0x663: 0x661, 0xb3: 0xb9})
        return ["gen", "--family", "const", "--m", "3", "--value", tok]
    return ["report", "--family", "eq", "--m", f"2,{tok}"]


_READERS = ["bfn", "rect", "limits", "measure --m", "report --m", "--n",
            "--seed", "--value"]


@pytest.mark.parametrize("reader", _READERS)
@pytest.mark.parametrize("tok", ["\u0663", "+3", "1_0", "", "\u00b3"])
def test_numbers_not_in_ascii_digits_are_refused(reader, tok, tmp_path,
                                                capsys):
    refusal(_reading(reader, tok, tmp_path), capsys)


@pytest.mark.parametrize("argv", [
    ["measure", "--family", "eq", "--m", "4", "--limits", "node= 5"],
    ["measure", "--family", "eq", "--m", "4", "--limits", "node=5, rects=9"],
    ["measure", "--family", "eq", "--m", " 3"],
    ["report", "--family", "eq", "--m", "2, 3"],
])
def test_flag_numbers_take_no_spaces(argv, capsys):
    refusal(argv, capsys)


@pytest.mark.parametrize("reader, code",
                         zip(_READERS, [0, 0, 2, 0, 0, 0, 0, 0]))
def test_numbers_in_ascii_digits_are_read(reader, code, tmp_path, capsys):
    outs = []
    for tok in ("3", "03"):
        assert run(_reading(reader, tok, tmp_path)) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        outs.append(captured.out)
    assert outs[0] == outs[1] != ""


def test_seed_takes_a_leading_minus(capsys):
    gen = ["gen", "--family", "random", "--m", "3", "--seed"]
    assert run(gen + ["-7"]) == 0
    negative = capsys.readouterr().out
    assert run(gen + ["-07"]) == 0
    assert capsys.readouterr().out == negative
    assert run(gen + ["7"]) == 0
    assert capsys.readouterr().out != negative
    for tok in ("-", "- 7", "-\u0667"):
        assert f"{tok!r} is not an integer" in refusal(gen + [tok], capsys)
    refusal(gen + ["-+7"], capsys)  # read as a flag, so --seed has no value


# ----------------------------------------------------------- limits

def test_limits_flag_sets_the_budget(tmp_path, capsys):
    f = random_sign(6, 6, 99)
    src = tmp_path / "r.bfn"
    src.write_text(format_bfn(f))
    assert run(["measure", "--in", str(src), "--limits", "node=3"]) == 2
    capsys.readouterr()
    assert run(["measure", "--in", str(src), "--limits", "node=400000"]) in (0, 2)
    out = capsys.readouterr().out
    assert "D_status: exact" in out


def test_environment_sets_no_limit(monkeypatch, capsys):
    # Limits come from --limits alone: the same argv, the same answer.
    argv = ["measure", "--family", "eq", "--m", "4"]
    assert run(argv) == 0
    expected = capsys.readouterr().out
    assert "C_status: exact" in expected
    monkeypatch.setenv("CCLAB_LIMITS", "node=1")
    assert run(argv) == 0
    assert capsys.readouterr().out == expected


def test_bad_limits_flag(capsys):
    assert run(["measure", "--family", "xor", "--m", "2",
                "--limits", "bogus=3"]) == 1
    assert "limit" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["node=1,node=2", "ms=5,rects=9,ms=5",
                                   "rects=3,node=4,rects=3"])
def test_repeated_limit_key_is_refused(limit, capsys):
    key = limit.partition("=")[0]
    argv = ["measure", "--family", "xor", "--m", "2", "--limits", limit]
    assert refusal(argv, capsys) == f"error: limit {key} given twice"
    with pytest.raises(ValueError, match="given twice"):
        SearchLimits.parse(limit)


def test_build_n_below_one_is_a_user_error(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert refusal(["build", "--family", "eq", "--m", "2", "--n", "0",
                    "--mode", "greedy", "--out", str(out)],
                   capsys) == "error: n must be >= 1"
    assert not out.exists()


@pytest.mark.parametrize("limit", ["node=0", "rects=0", "ms=0"])
@pytest.mark.parametrize("command", ["measure", "build", "report"])
def test_zero_limits_are_refused(command, limit, tmp_path, capsys):
    out = tmp_path / "p.json"
    argv = [command, "--family", "eq", "--m", "2", "--limits", limit]
    if command == "build":
        argv += ["--out", str(out)]
    assert refusal(argv, capsys) == "error: limits must be positive"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "eq", "--m", "2", "--limits", "node=5"],
    ["extract", "--in", "BFN", "--n", "2", "--rect", "RECT",
     "--limits", "node=5"],
    ["balance", "--in", "PROTO", "--limits", "node=5"],
    ["verify", "--in", "PROTO", "--matrix", "BFN", "--limits", "node=5"],
    ["gen", "--family", "eq", "--m", "2", "--format", "json"],
    ["build", "--in", "BFN", "--format", "json"],
    ["balance", "--in", "PROTO", "--format", "json"],
    ["verify", "--in", "PROTO", "--matrix", "BFN", "--format", "json"],
    ["report", "--family", "eq", "--m", "2", "--in", "BFN"],
    ["report", "--family", "eq", "--m", "2", "--mode", "greedy"],
    ["extract", "--in", "BFN", "--n", "2", "--rect", "RECT",
     "--format", "csv"],
])
def test_flag_the_command_does_not_read_is_user_error(argv, tmp_path, capsys):
    # Each of these would otherwise run and ignore the flag.
    paths = {"BFN": tmp_path / "eq2.bfn", "PROTO": tmp_path / "eq2.json",
             "RECT": tmp_path / "r.rect"}
    run(["gen", "--family", "eq", "--m", "2", "--out", str(paths["BFN"])])
    run(["build", "--in", str(paths["BFN"]), "--out", str(paths["PROTO"])])
    paths["RECT"].write_text(format_rect(Rectangle((0, 3), (0, 3))))
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [str(paths.get(a, a)) for a in argv] + ["--out", str(out)]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not out.exists()


def test_unknown_flag_is_user_error(capsys):
    assert run(["measure", "--family", "xor", "--m", "2", "--zap"]) == 1


# ----------------------------------------------------------- reader contract
#
# Whatever a file holds, a reader exits 0, 1 or 2 and writes at most
# one line to stderr, an "error:" line when it exits 1; an exception
# out of main fails the test.  The runs are derandomized and keep no
# example database.  Hypothesis caches the constants of the source files
# while pytest collects, so its directory is moved out of the checkout
# at import.

set_hypothesis_home_dir(pathlib.Path(tempfile.gettempdir())
                        / "cclab-hypothesis")
_PROPERTY = settings(database=None, derandomize=True, deadline=None,
                     max_examples=120)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    work = tmp_path_factory.mktemp("reader")
    (work / "f.bfn").write_text("2 3\n010\n110\n")
    return work


def _contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    err = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert len(err) <= 1
    if code == 1:
        assert len(err) == 1 and err[0].startswith("error:")


_small = st.integers(-1, 4).map(str)
_bfn_texts = st.one_of(
    st.binary(max_size=40).map(lambda b: b.decode("latin-1")),
    st.text(st.sampled_from("01 \r\n#x-+2²٣"), max_size=40),
    st.builds(lambda r, c, body: f"{r} {c}\n{body}", _small, _small,
              st.text(st.sampled_from("01\n# \r"), max_size=24)),
)


@_PROPERTY
@given(text=_bfn_texts)
def test_gen_reads_any_file(files, text):
    path = files / "in.bfn"
    path.write_text(text, encoding="utf-8", newline="")
    _contract(["gen", "--in", str(path), "--out", str(files / "out.bfn")])


@_PROPERTY
@given(raw=st.binary(max_size=8),
       text=st.text(st.sampled_from("0123 -+\n\t1e²"), max_size=24))
def test_extract_reads_any_rect(files, raw, text):
    for content in (raw, text.encode("utf-8")):
        path = files / "in.rect"
        path.write_bytes(content)
        _contract(["extract", "--in", str(files / "f.bfn"), "--n", "1",
                   "--rect", str(path)])


_sizes = st.one_of(st.integers(-1, 3), st.sampled_from([2 ** 12, 2 ** 13]),
                   st.just("2"), st.none())
_outputs = st.one_of(st.integers(-1, 2), st.booleans(), st.just(1.0))
_trees = st.recursive(
    st.builds(lambda out: {"output": out}, _outputs),
    lambda kids: st.fixed_dictionaries(
        {"speaker": st.sampled_from(["alice", "bob", "carol"]),
         "subset": st.one_of(st.lists(st.integers(-1, 3), max_size=3),
                             st.just(5)),
         "child0": kids, "child1": kids}),
    max_leaves=8)


@_PROPERTY
@given(rows=_sizes, cols=_sizes, tree=_trees, drop=st.booleans(),
       junk=st.text(max_size=12))
def test_balance_reads_any_protocol_file(files, rows, cols, tree, drop,
                                         junk):
    obj = {"rows": rows, "cols": cols, "tree": tree}
    if drop:
        del obj["tree"]
    for text in (json.dumps(obj), junk):
        path = files / "in.json"
        path.write_text(text, encoding="utf-8")
        _contract(["balance", "--in", str(path),
                   "--out", str(files / "out.json")])
