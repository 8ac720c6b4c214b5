"""Command-line surface: gen, measure, extract, build, balance, verify,
report.

Each command takes only the flags it reads; any other is a user error.
measure, build and report run the metered searches and take --limits;
measure and report print text, csv or json (--format), extract text or
json.  report reads --family only, not --in.

Exit codes: 0 exact success, 2 bounded/inconclusive results, 1 user
error.  Identical invocations (including seed and limits) produce
byte-identical outputs; wall-clock limits (ms=) are the one knob that
can break that, so leave them unset when reproducibility matters.

Search limits come from --limits alone (node=..,ms=..,rects=.., any
subset, defaults for the rest).  Every number on the command line is
written in ASCII digits: --limits values, --m sizes, --n and --value,
and --seed after an optional leading '-'.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .builder import (DIRECT_MAX, LIFT_EXTRACT, build_protocol,
                      theorem_report)
from .errors import CapacityError, ParseError, StructureError, parse_count
from .limits import SearchLimits
from .matrix import (FAMILIES, BoolFun, classes, format_bfn, make_family,
                     rank, read_bfn, xor_power)
from .protocol import (ProtocolTree, balance, exact_cc, first_mismatch,
                       format_tree, tree_from_obj)
from .rectangles import EXACT, cover_number, read_rect
from .entropy import extract_rectangle


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="cclab", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    # The flags shared by some commands, each given only where it is read.
    def family(sp):
        sp.add_argument("--family", choices=FAMILIES)
        sp.add_argument("--m", help="family size (report: comma list)")
        sp.add_argument("--seed", type=_seed, help="seed for random family")
        sp.add_argument("--value", type=_count, choices=[0, 1],
                        help="bit for const family")

    def matrix(sp):  # --in or --family
        sp.add_argument("--in", dest="in_path", help="input .bfn matrix file")
        family(sp)

    def limits(sp):
        sp.add_argument("--limits", help="node=..,ms=..,rects=..")

    def formats(*choices):
        return lambda sp: sp.add_argument("--format", choices=choices,
                                          default="text")

    def command(name, help, *shared):
        sp = sub.add_parser(name, help=help)
        for add in shared:
            add(sp)
        sp.add_argument("--out", help="output path (default: stdout)")
        return sp

    table_formats = formats("text", "csv", "json")
    command("gen", "write a family matrix as .bfn", matrix)

    sp = command("measure", "rank, distinct rows/cols, D, C", matrix, limits,
                 table_formats)
    sp.add_argument("--mode", choices=["exact", "greedy"], default="exact")

    sp = command("extract", "pull a base rectangle out of a lift rectangle",
                 matrix, formats("text", "json"))
    sp.add_argument("--n", type=_count, required=True)
    sp.add_argument("--rect", required=True, help=".rect file over the lift")

    sp = command("build", "build a protocol tree (rank-split recursion)",
                 matrix, limits)
    sp.add_argument("--n", type=_count, default=1)
    sp.add_argument("--strategy", choices=[DIRECT_MAX, LIFT_EXTRACT],
                    default=DIRECT_MAX)
    sp.add_argument("--mode", choices=["exact", "greedy"], default="greedy",
                    help="exact: also compute C(f^(+n)) exactly to audit the trace")

    sp = command("balance", "rebalance a protocol tree")
    sp.add_argument("--in", dest="in_path", required=True, help="protocol json")

    sp = command("verify", "check a protocol tree against a matrix")
    sp.add_argument("--in", dest="in_path", required=True, help="protocol json")
    sp.add_argument("--matrix", required=True, help=".bfn matrix file")

    sp = command("report", "lower-bound experiment rows across a family sweep",
                 family, limits, table_formats)
    sp.add_argument("--n", type=_count, default=1)
    sp.add_argument("--strategy", choices=[DIRECT_MAX, LIFT_EXTRACT],
                    default=DIRECT_MAX)
    return p


def _count(tok: str, signed: bool = False) -> int:
    """An argparse type: errors.parse_count, its refusal a user error."""
    try:
        return parse_count(tok, signed)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _seed(tok: str) -> int:
    return _count(tok, signed=True)


# parse_args fills a fresh namespace on every call and _Parser.error
# raises, so one parser serves every call of main.
_PARSER = _build_parser()


def _load_input(args) -> BoolFun:
    if bool(args.in_path) == bool(args.family):
        raise ValueError("exactly one input source: --in or --family")
    if args.in_path:
        return read_bfn(args.in_path)
    if not args.m:
        raise ValueError("--family requires --m")
    return make_family(args.family, _size(args.m), seed=args.seed,
                       const_value=args.value)


def _size(tok: str) -> int:
    """One --m size, as an int; any other token is a user error."""
    try:
        return parse_count(tok)
    except ValueError as e:
        raise ValueError(f"--m: {e}") from None


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".10g")
    return str(v)


def _csv_field(v) -> str:
    """v as a CSV field, quoted with each quote doubled if it holds a
    comma, a quote or a line break (RFC 4180)."""
    s = _fmt(v)
    return '"' + s.replace('"', '""') + '"' if set(',"\r\n') & set(s) else s


def _render(rows, fmt) -> str:
    """rows (dicts with the same keys, in column order) as fmt."""
    if fmt == "json":
        return json.dumps(rows if len(rows) != 1 else rows[0],
                          sort_keys=True, indent=2) + "\n"
    columns = list(rows[0])
    if fmt == "csv":
        lines = ["#v1 " + ",".join(columns)]
        lines += [",".join(_csv_field(r[c]) for c in columns) for r in rows]
        return "\n".join(lines) + "\n"
    blocks = []
    for r in rows:
        blocks.append("\n".join(f"{c}: {_fmt(r[c])}" for c in columns))
    return "\n\n".join(blocks) + "\n"


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    f = _load_input(args)
    _emit(format_bfn(f), args.out)
    return 0


def _cmd_measure(args) -> int:
    f = _load_input(args)
    limits = SearchLimits.parse(args.limits or "")
    cc = exact_cc(f, limits)
    cov = cover_number(f, mode=args.mode, limits=limits)
    row_classes, col_classes = classes(f)
    row = {
        "name": f.label or "f", "rows": f.rows, "cols": f.cols,
        "rank": rank(f), "distinct_rows": len(row_classes),
        "distinct_cols": len(col_classes),
        "D_lo": cc.lower, "D_hi": cc.upper, "D_status": cc.status,
        "C_lo": cov.lower, "C_hi": cov.upper, "C_status": cov.status,
    }
    _emit(_render([row], args.format), args.out)
    return 0 if cc.exact and cov.exact else 2


def _cmd_extract(args) -> int:
    f = _load_input(args)
    rect = read_rect(args.rect)
    t, cert = extract_rectangle(f, args.n, rect)
    record = {
        "i": cert.i, "x_prefix": list(cert.x_prefix),
        "y_suffix": list(cert.y_suffix), "u": cert.u, "v": cert.v,
        "R_size": rect.area, "T_size": t.area, "color": t.color,
        "T_rows": list(t.row_set), "T_cols": list(t.col_set),
        "check": f"(4*{t.area})^{args.n} >= {rect.area}: pass",
    }
    guarantee = 2.0 ** (math.log2(rect.area) / args.n - 2)
    record["guarantee"] = (guarantee if args.format == "json" else
                           f"|T| >= 2^(k/n - 2) = {_fmt(guarantee)}")
    _emit(_render([record], args.format), args.out)
    return 0


def _cmd_build(args) -> int:
    if not args.out:
        raise ValueError("build requires --out for the protocol file")
    f = _load_input(args)
    limits = SearchLimits.parse(args.limits or "")
    cover_value = None
    if args.mode == "exact":
        cov = cover_number(xor_power(f, args.n), EXACT, limits)
        cover_value = cov.value if cov.exact else None
    tree, trace = build_protocol(f, args.n, strategy=args.strategy,
                                 cover_value=cover_value)
    _emit(format_tree(tree), args.out)
    trace_obj = dict(vars(trace), steps=[vars(s) for s in trace.steps],
                     budgets_ok=trace.budgets_ok(), leaves=tree.leaf_count,
                     depth=tree.depth)
    _emit(_render([trace_obj], "json"), args.out + ".trace.json")
    # build_protocol raised if the audit failed; exact mode is
    # inconclusive only when its cover search hit the limits.
    return 0 if args.mode != "exact" or cover_value is not None else 2


def _read_tree(path) -> ProtocolTree:
    """The protocol tree held in a JSON file.  A file nested deeper than
    the interpreter's recursion limit is a user error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return tree_from_obj(json.load(fh))
    except RecursionError:
        raise ValueError(f"protocol file {path} is nested too deeply "
                         "to read") from None


def _cmd_balance(args) -> int:
    _emit(format_tree(balance(_read_tree(args.in_path))), args.out)
    return 0


def _cmd_verify(args) -> int:
    tree = _read_tree(args.in_path)
    f = read_bfn(args.matrix)
    cell = first_mismatch(tree, f)
    if cell is not None:
        x, y = cell
        value = f.f_value(x, y)  # the protocol outputs the other bit
        sys.stderr.write(f"mismatch at ({x}, {y}): protocol {1 - value}, "
                         f"function {value}\n")
        return 1
    _emit(f"verified: {f.rows}x{f.cols}, {tree.leaf_count} leaves, "
          f"depth {tree.depth}\n", args.out)
    return 0


def _cmd_report(args) -> int:
    if not args.family or not args.m:
        raise ValueError("report requires --family and --m (comma list allowed)")
    limits = SearchLimits.parse(args.limits or "")
    sizes = [_size(tok) for tok in args.m.split(",")]
    rows = []
    all_exact = True
    for m in sizes:
        f = make_family(args.family, m, seed=args.seed, const_value=args.value)
        row, exact = theorem_report(f, args.n, limits=limits,
                                    strategy=args.strategy)
        rows.append(row)
        all_exact = all_exact and exact
    _emit(_render(rows, args.format), args.out)
    return 0 if all_exact else 2


_DISPATCH = {
    "gen": _cmd_gen, "measure": _cmd_measure, "extract": _cmd_extract,
    "build": _cmd_build, "balance": _cmd_balance, "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return _DISPATCH[args.command](args)
    except (ParseError, ValueError, CapacityError, StructureError,
            OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
