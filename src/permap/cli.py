"""Command-line front end.

Three subcommands:

    table      finite-n summary statistics over a list of n, table layout
               and normalisations matching the reference tables
    constants  every limit constant with achieved-error estimates
    verify     cross-engine verification suites, machine-readable report

Output formats: text (display rounding: means/variances to 6 decimals,
scaled medians/modes to 4), csv (full precision, fixed ASCII header
names), json (full precision, keyed identically to the csv header).  A
table whose printed columns come from the conjectural shortest-side
recursion (ktp engines, rank >= 2) says so: json carries a top-level
"conjectural" key, text and csv print a one-line note on stderr.

Exit codes: 0 success; 1 verification failure; 2 configuration error:
an argument the parser rejects (such as a negative --digits), a request
the library rejects (a ValueError, such as a rank the engine does not
cover), or an --output path that cannot be written (checked up front);
3 a float engine's precision guard failed (PrecisionError: a mass-sum or
negative-mass check).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import asymptotics, exact, ktp, oracle
from .kinds import ObjectKind, Side, connected_count
from .stats import summarize

_KINDS = {"permute": ObjectKind.PERMUTATION, "permutation": ObjectKind.PERMUTATION,
          "map": ObjectKind.MAPPING, "mapping": ObjectKind.MAPPING}
_ENGINES = ("exact", "exact-float", "ktp", "ktp-float", "oracle")


class ConfigError(Exception):
    pass


def _compute_pmf(engine: str, kind: ObjectKind, n: int, r: int, side: Side):
    if engine in ("ktp", "ktp-float") and kind is not ObjectKind.PERMUTATION:
        raise ConfigError("the cumulative cycle-count engine covers permutations only; "
                          "use --engine exact or exact-float for mappings")
    if engine == "exact":
        return exact.pmf(kind, n, r, side)
    if engine == "exact-float":
        return exact.pmf_float(kind, n, r, side)
    if engine == "ktp":
        return ktp.pmf_from_tables(r, n, side)
    if engine == "ktp-float":
        return ktp.pmf_from_tables_float(r, n, side)
    return oracle.enumerate_pmf(kind, n, r, side)


def _columns(kind: ObjectKind, r: int, side: str) -> list[str]:
    if kind is ObjectKind.PERMUTATION:
        largest = ["L_mu_norm", "L_sigma2_norm", "L_nu_norm", "L_theta_norm"]
        smallest = ["S_mu_norm", "S_sigma2_norm"]
    elif r <= 3:
        largest = ["L_mu_norm", "L_sigma2_norm", "L_nu_norm"]
        smallest = ["S_mu_norm", "S_sigma2_norm", "S_nu_norm"]
    else:
        largest = ["L_mu_norm", "L_sigma2_norm"]
        smallest = ["S_mu_norm", "S_sigma2_norm"]
    if side == "largest":
        return largest
    if side == "smallest":
        return smallest
    return largest + smallest


def _table_rows(args) -> tuple[list[str], list[dict], bool]:
    """Columns, rows in the order asked, and whether any column is conjectural.

    Sizes are computed largest first, so every engine builds its tables
    once per sweep and serves the smaller sizes from them.
    """
    kind = _KINDS[args.kind]
    cols = _columns(kind, args.rank, args.side)
    if args.engine == "exact" and max(args.n) > 80:
        print("note: the exact big-integer engine grows quickly with n; "
              "--engine exact-float reproduces the same tables in seconds",
              file=sys.stderr)
    computed = {}
    conjectural = False
    for n in sorted(set(args.n), reverse=True):
        row: dict[str, object] = {"n": n}
        stats = {}
        for side in (Side.LARGEST, Side.SMALLEST):
            prefix = "L" if side is Side.LARGEST else "S"
            if any(c.startswith(prefix) for c in cols):
                pmf = _compute_pmf(args.engine, kind, n, args.rank, side)
                conjectural |= pmf.conjectural
                stats[prefix] = summarize(pmf)
        for col in cols:
            st = stats[col[0]]
            field = {"mu": "normalized_mean", "sigma2": "normalized_variance",
                     "nu": "normalized_median", "theta": "normalized_mode"}[
                         col.split("_")[1]]
            row[col] = getattr(st, field)
        computed[n] = row
    return cols, [computed[n] for n in args.n], conjectural


def _check_output(path: str | None) -> None:
    """Refuse an --output that cannot be written, before any work; create nothing."""
    folder = os.path.dirname(path or "") or "."
    if path and (os.path.isdir(path) or not os.path.isdir(folder)
                 or not os.access(folder, os.W_OK)):
        raise ConfigError(f"cannot write {path}: not a file in a writable directory")


def _emit(text: str, path: str | None) -> None:
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


def _render_table(cols: list[str], rows: list[dict], conjectural: bool, args) -> str:
    if args.format == "json":
        return json.dumps({"kind": args.kind, "rank": args.rank,
                           "engine": args.engine, "conjectural": conjectural,
                           "columns": ["n"] + cols, "rows": rows}, indent=2) + "\n"
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["n"] + cols)
        for row in rows:
            writer.writerow([row["n"]] + [repr(float(row[c])) for c in cols])
        return buf.getvalue()
    # text: means/variances to --digits, scaled medians/modes to 4 decimals
    def fmt(col: str, val: float) -> str:
        places = args.digits if col.split("_")[1] in ("mu", "sigma2") else 4
        return f"{val:.{places}f}"
    widths = {c: max(len(c) + 2, args.digits + 4) for c in cols}
    head = "n".rjust(6) + "".join(c.rjust(widths[c]) for c in cols)
    lines = [head]
    for row in rows:
        lines.append(str(row["n"]).rjust(6)
                     + "".join(fmt(c, row[c]).rjust(widths[c]) for c in cols))
    return "\n".join(lines) + "\n"


def _cmd_table(args) -> int:
    cols, rows, conjectural = _table_rows(args)
    if conjectural and args.format != "json":
        print("note: the S_ columns come from the conjectural shortest-side recursion; "
              "--engine exact-float computes them from the proven chain", file=sys.stderr)
    _emit(_render_table(cols, rows, conjectural, args), args.output)
    return 0


def _cmd_constants(args) -> int:
    catalog = asymptotics.constants_catalog()
    if args.format == "json":
        text = json.dumps([{"name": n, "value": v, "error": e}
                           for n, v, e in catalog], indent=2) + "\n"
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "value", "error"])
        for name, value, err in catalog:
            writer.writerow([name, repr(value), repr(err)])
        text = buf.getvalue()
    else:
        name_w = max(len(n) for n, _, _ in catalog)
        lines = [f"{name:<{name_w}}  {value:.{args.digits}g}  (err <= {err:.1e})"
                 for name, value, err in catalog]
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0


# ---------------------------------------------------------------------------
# verification suites

def _suite_small_exact() -> list[tuple[str, bool, str]]:
    P, M = ObjectKind.PERMUTATION, ObjectKind.MAPPING
    INF = exact.INFINITY
    checks = []

    def check(name, got, expect):
        checks.append((name, got == expect, f"got {got}, expect {expect}"))

    check("p[4,(0,0)] permutations",
          exact.largest_poly(P, 4, (0, 0)).coeffs, (6, 15, 3))
    check("p[4,(0,0)] mappings",
          exact.largest_poly(M, 4, (0, 0)).coeffs, (142, 87, 27))
    check("q[4,(inf,inf)] permutations",
          exact.smallest_poly(P, 4, (INF, INF)).coeffs, (6, 7, 3, 8))
    check("q[4,(inf,inf)] mappings",
          exact.smallest_poly(M, 4, (INF, INF)).coeffs, (142, 19, 27, 68))
    check("connected mapping counts n=1..5",
          tuple(connected_count(M, n) for n in range(1, 6)), (1, 3, 17, 142, 1569))
    ut = ktp.longest_table(2, 2, 4)
    check("u_2(k,4)", tuple(ut.counts[k][4] for k in range(3)), (6, 21, 24))
    check("u_2(1,3)", ut.counts[1][3], 6)
    vt = ktp.shortest_table(2, 3, 4)
    check("v_2(k,4)", tuple(vt.counts[k][4] for k in range(1, 4)), (18, 11, 8))
    check("v_2(1,3)", vt.counts[1][3], 4)
    check("delta_2(k,4)", tuple(ktp.delta(2, k, 4) for k in (1, 2, 3)), (11, 9, 6))
    mean = summarize(exact.pmf(P, 4, 2, Side.LARGEST)).mean
    check("mean second-longest cycle, n=4", mean, Fraction(7, 8))
    return checks


def _suite_oracle() -> list[tuple[str, bool, str]]:
    checks = []
    for kind in ObjectKind:
        for n in range(1, 8):
            ok = True
            detail = "all ranks, both sides"
            for r in (1, 2, 3, 4):
                for side in Side:
                    want = oracle.enumerate_pmf(kind, n, r, side).probs
                    got = exact.pmf(kind, n, r, side).probs
                    if got != want:
                        ok = False
                        detail = f"mismatch at r={r} {side.name}: {got} != {want}"
                        break
                if not ok:
                    break
            checks.append((f"exact == enumeration, {kind.name} n={n}", ok, detail))
    return checks


def _suite_mode_shift() -> list[tuple[str, bool, str]]:
    checks = []
    modes = {}
    for n in (433, 434):
        pmf = exact.pmf_float(ObjectKind.MAPPING, n, 2, Side.SMALLEST)
        modes[n] = summarize(pmf).mode
    checks.append(("mapping second-smallest mode at n=433", modes[433] == 0,
                   f"mode {modes[433]}, expect 0"))
    checks.append(("mapping second-smallest mode at n=434", modes[434] == 2,
                   f"mode {modes[434]}, expect 2"))
    return checks


_SUITES = {"small-exact": _suite_small_exact, "oracle": _suite_oracle,
           "mode-shift": _suite_mode_shift}


def _cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    report = {"suites": [], "passed": True}
    for name in names:
        checks = _SUITES[name]()
        report["suites"].append({
            "suite": name,
            "checks": [{"name": c, "passed": ok, "detail": detail}
                       for c, ok, detail in checks],
            "passed": all(ok for _, ok, _ in checks),
        })
        report["passed"] &= all(ok for _, ok, _ in checks)
    if args.format == "json":
        _emit(json.dumps(report, indent=2) + "\n", args.output)
    else:
        lines = []
        for suite in report["suites"]:
            for chk in suite["checks"]:
                mark = "PASS" if chk["passed"] else "FAIL"
                tail = "" if chk["passed"] else f"  [{chk['detail']}]"
                lines.append(f"{mark}  {suite['suite']}: {chk['name']}{tail}")
        lines.append("OK" if report["passed"] else "FAILED")
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if report["passed"] else 1


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list: {text!r}") from None


def _digits(text: str) -> int:
    try:
        digits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad digit count: {text!r}") from None
    if digits < 0:
        raise argparse.ArgumentTypeError(f"digits must be >= 0, got {digits}")
    return digits


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="permap",
        description="Ranked component-size statistics of random permutations and mappings")
    sub = top.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="finite-n summary statistic tables")
    table.add_argument("--kind", choices=sorted(_KINDS), required=True)
    table.add_argument("--rank", type=int, default=2, metavar="R")
    table.add_argument("--side", choices=["largest", "smallest", "both"],
                       default="both")
    table.add_argument("--n", type=_int_list, required=True,
                       metavar="N1,N2,...", help="comma-separated sizes")
    table.add_argument("--engine", choices=_ENGINES, default="exact-float")
    table.add_argument("--format", choices=["text", "csv", "json"], default="text")
    table.add_argument("--digits", type=_digits, default=6)
    table.add_argument("--output", metavar="PATH")

    consts = sub.add_parser("constants", help="limit constants")
    consts.add_argument("--format", choices=["text", "csv", "json"], default="text")
    consts.add_argument("--digits", type=_digits, default=20)
    consts.add_argument("--output", metavar="PATH")

    verify = sub.add_parser("verify", help="cross-engine verification suites")
    verify.add_argument("--suite", choices=sorted(_SUITES) + ["all"], default="all")
    verify.add_argument("--format", choices=["text", "json"], default="text")
    verify.add_argument("--output", metavar="PATH")
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_output(args.output)
        if args.command == "table":
            if args.rank < 1:
                raise ConfigError("rank must be a positive integer")
            if any(n < 1 for n in args.n):
                raise ConfigError("sizes must be positive integers")
            try:
                return _cmd_table(args)
            except ValueError as exc:  # a request the library cannot serve
                raise ConfigError(str(exc)) from None
        if args.command == "constants":
            return _cmd_constants(args)
        return _cmd_verify(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except exact.PrecisionError as exc:
        print(f"error: float precision guard failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
