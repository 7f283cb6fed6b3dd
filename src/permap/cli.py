"""Command-line front end.

Three subcommands:

    table      finite-n summary statistics over a list of n, table layout
               and normalisations matching the reference tables
    constants  every limit constant with achieved-error estimates
    verify     cross-engine verification suites, machine-readable report

Engines (table --engine): exact-float, the default, is the one
production engine.  ktp-float checks the conjectural shortest-side
recursion against it: its largest side is exact-float itself.  exact,
ktp and oracle are verification routes.

Output formats: text (display rounding: table means/variances to --digits
decimals, 6 by default, scaled medians/modes to 4; constants to --digits
significant digits, 20 by default), csv (full precision, fixed ASCII header
names), json (full precision, keyed identically to the csv header; the
smallest side's nan mean and variance at n = 1 are written null).  A
table whose printed columns come from the conjectural shortest-side
recursion (ktp engines, rank >= 2) says so: json carries a top-level
"conjectural" key, text and csv print a one-line note on stderr.

Exit codes: 0 success; 1 verification failure; 2 configuration error:
an argument the parser rejects (such as a negative --digits), a request
the chosen engine does not serve (a mapping asked of a ktp engine, or a
ValueError from the library, such as an --n past the oracle's enumeration
budget), an --output path that cannot be written (checked up front, and
refused the same way when the write itself fails), or a
request too large for the memory at hand (MemoryError); 3 a precision
guard failed (PrecisionError: a float engine's mass-sum or probability-range
check, or a quadrature error above its tolerance).

Every integer argument, the library's and table's --rank and --n alike,
follows one rule (kinds.whole): an int in its range, never a bool or a
float.  A refusal is the line "error: <what> must be an int in low..high,
got X" (">= low" where there is no upper bound), such as "error: --rank
must be an int >= 1, got 0", and exit code 2.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from fractions import Fraction

from . import asymptotics, exact, ktp, oracle
from .kinds import ObjectKind, Side, connected_count, whole
from .stats import summarize

_KINDS = {"permute": ObjectKind.PERMUTATION, "permutation": ObjectKind.PERMUTATION,
          "map": ObjectKind.MAPPING, "mapping": ObjectKind.MAPPING}
# engine name -> route(kind, n, r, side); each looks its function up when
# called, so that a function patched on its module is the one called
_ENGINES = {
    "exact": lambda kind, n, r, side: exact.pmf(kind, n, r, side),
    "exact-float": lambda kind, n, r, side: exact.pmf_float(kind, n, r, side),
    "ktp": lambda kind, n, r, side: ktp.pmf_from_tables(r, n, side),
    "ktp-float": lambda kind, n, r, side: ktp.pmf_from_tables_float(r, n, side),
    "oracle": lambda kind, n, r, side: oracle.enumerate_pmf(kind, n, r, side),
}


class ConfigError(Exception):
    pass


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
    if args.engine in ("ktp", "ktp-float") and kind is not ObjectKind.PERMUTATION:
        raise ConfigError("the cumulative cycle-count engine covers permutations only; "
                          "use --engine exact or exact-float for mappings")
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
                pmf = _ENGINES[args.engine](kind, n, args.rank, side)
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


def _csv(header: list[str], rows) -> str:
    """CSV text: the header line, then one line per row."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _render_table(cols: list[str], rows: list[dict], conjectural: bool, args) -> str:
    if args.format == "json":
        rows = [{c: None if math.isnan(v) else v for c, v in row.items()} for row in rows]
        return json.dumps({"kind": args.kind, "rank": args.rank,
                           "engine": args.engine, "conjectural": conjectural,
                           "columns": ["n"] + cols, "rows": rows}, indent=2) + "\n"
    if args.format == "csv":
        return _csv(["n"] + cols, ([row["n"]] + [repr(float(row[c])) for c in cols]
                                   for row in rows))
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
        text = _csv(["name", "value", "error"],
                    ([name, repr(value), repr(err)] for name, value, err in catalog))
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
    check("delta_3(k,5)", tuple(ktp.delta(3, k, 5) for k in range(1, 5)), (35, 24, 12, 0))
    check("delta_4(k,6)", tuple(ktp.delta(4, k, 6) for k in range(1, 5)), (85, 50, 20, 0))
    mean = summarize(exact.pmf(P, 4, 2, Side.LARGEST)).mean
    check("mean second-longest cycle, n=4", mean, Fraction(7, 8))
    return checks


def _suite_oracle() -> list[tuple[str, bool, str]]:
    checks = []
    for kind in ObjectKind:
        for n in range(1, 8):
            pairs = ((r, side, oracle.enumerate_pmf(kind, n, r, side).probs,
                      exact.pmf(kind, n, r, side).probs) for r in (1, 2, 3, 4) for side in Side)
            mismatch = next((f"mismatch at r={r} {side.name}: {got} != {want}"
                             for r, side, want, got in pairs if got != want), None)
            checks.append((f"exact == enumeration, {kind.name} n={n}", mismatch is None,
                           mismatch or "all ranks, both sides"))
    return checks


def _suite_mode_shift() -> list[tuple[str, bool, str]]:
    checks = []
    for n, want in ((433, 0), (434, 2)):
        mode = summarize(exact.pmf_float(ObjectKind.MAPPING, n, 2, Side.SMALLEST)).mode
        checks.append((f"mapping second-smallest mode at n={n}", mode == want,
                       f"mode {mode}, expect {want}"))
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
        sizes = [int(part) for part in text.replace(",", " ").split()]
    except ValueError:
        sizes = []
    if not sizes:
        raise argparse.ArgumentTypeError(f"bad integer list: {text!r}")
    return sizes


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
    table.add_argument("--engine", choices=_ENGINES, default="exact-float", help=(
        "production engine: exact-float; conjecture check: ktp-float; "
        "verification routes: exact, ktp, oracle"))
    table.add_argument("--format", choices=["text", "csv", "json"], default="text")
    table.add_argument("--digits", type=_digits, default=6, help=(
        "text format: decimal places of the mean and variance (mu, sigma2) "
        "columns; medians and modes keep 4 (default 6)"))
    table.add_argument("--output", metavar="PATH")

    consts = sub.add_parser("constants", help="limit constants")
    consts.add_argument("--format", choices=["text", "csv", "json"], default="text")
    consts.add_argument("--digits", type=_digits, default=20, help=(
        "text format: significant digits of each value (default 20)"))
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
            try:
                whole(args.rank, 1, "--rank")
                for n in args.n:
                    whole(n, 1, "--n: size")
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
    except MemoryError:
        print("error: not enough memory for this request", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
