"""The benchmark's workloads: requests made from a seed, and their output checks.

A workload is a list of operations.  Each operation is one request as a
user of permap would make it (one CLI command, or one library query) and
returns the list of its problems; it fails if it raises or reports any
problem.  Every PMF an engine returns while an operation runs is also
checked from outside (see ``pmf_problems``), including PMFs the CLI builds
and never prints.

Sizes are cut down from the published grids so that several cold
processes fit in one run; README.md gives each workload's full-size
counterpart and why it was cut.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
import time
from fractions import Fraction

from permap import cli, exact, ktp, oracle, stats
from permap.kinds import ObjectKind, Side

P, M = ObjectKind.PERMUTATION, ObjectKind.MAPPING
L, S = Side.LARGEST, Side.SMALLEST

MASS_TOL = 1e-9
PERM_GRID = {2: (1000, 1500), 3: (1000, 1500), 4: (1000, 1500)}
MAP_GRID = {2: (100, 200, 300), 3: (100,), 4: (100,)}
SCAN_N = 100
SCAN_ANCHORS = (SCAN_N // 4, SCAN_N // 2, SCAN_N)
CROSS_N = 35
ORACLE_N = {ObjectKind.PERMUTATION: 8, ObjectKind.MAPPING: 6}

# engines whose returned PMFs are checked from outside
OBSERVED = ("exact.pmf", "exact.pmf_float", "ktp.pmf_from_tables",
            "ktp.pmf_from_tables_float", "oracle.enumerate_pmf")


def support(n: int, r: int, side: Side) -> int:
    """Number of possible sizes 0..bound of the r-th ranked component."""
    return n // r + 1 if side is L else max(n - r + 2, 1)


def pmf_problems(pmf) -> list[str]:
    """Length, sign and mass of one returned PMF, checked from outside."""
    tag = f"{pmf.kind.value} n={pmf.n} r={pmf.rank} {pmf.side.value}"
    probs = pmf.probs
    out = []
    want = support(pmf.n, pmf.rank, pmf.side)
    if len(probs) != want:
        out.append(f"{tag}: length {len(probs)} != support {want}")
    if any(p < 0 for p in probs):
        out.append(f"{tag}: negative entry {min(probs)!r}")
    mass = sum(probs) if probs and isinstance(probs[0], Fraction) else math.fsum(probs)
    if abs(float(mass) - 1.0) > MASS_TOL:
        out.append(f"{tag}: mass {float(mass)!r}")
    return out


class Observer:
    """Collects outside-check problems of every PMF returned during an operation."""

    def __init__(self):
        self.problems: list[str] = []
        self.checked = 0

    def wrap(self, fn):
        @functools.wraps(fn)
        def observed(*args, **kwargs):
            pmf = fn(*args, **kwargs)
            self.checked += 1
            self.problems.extend(pmf_problems(pmf))
            return pmf
        return observed


def run_ops(ops, observer: Observer, after_op=None) -> tuple[int, int, list[str]]:
    """Run operations in order: (attempted, failed, first problems).

    ``after_op``, if given, is called after each operation with the seconds
    it took, its checks included.
    """
    failed, messages = 0, []
    for label, op in ops:
        observer.problems = []
        start = time.perf_counter()
        try:
            problems = op() + observer.problems
        except Exception as exc:  # an operation that raises is a failed operation
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if after_op is not None:
            after_op(time.perf_counter() - start)
        if problems:
            failed += 1
            messages.extend(f"{label}: {p}" for p in problems[:3])
    return len(ops), failed, messages[:20]


# ---------------------------------------------------------------------------
# checks against tests/reference_tables.py

def _close(got: float, want: float, tol: float, name: str) -> list[str]:
    return [] if abs(got - want) <= tol else [f"{name}: {got!r} vs {want!r}"]


def _node(normalised: float, n: int) -> int:
    return round(normalised * n)


def perm_row_problems(r: int, row: dict, refs: dict) -> list[str]:
    n = row["n"]
    want = refs["PERM_STATS"][r].get(n)
    if want is None:
        return [f"no reference row for r={r} n={n}"]
    l_mu, l_s2, l_nu, l_th, s_mu, s_s2 = want
    tol = refs["STATS_TOL"]
    out = []
    for name, col, ref in (("L_mu", "L_mu_norm", l_mu), ("L_sigma2", "L_sigma2_norm", l_s2),
                           ("S_mu", "S_mu_norm", s_mu), ("S_sigma2", "S_sigma2_norm", s_s2)):
        got = row[col]
        truth = refs["PERM_STATS_ERRATA"].get((r, n, name))
        if truth is not None:  # criterion 05: erratum within tol, published within 6e-7
            out += _close(got, truth, tol, f"r={r} n={n} {name} (erratum)")
            out += _close(got, ref, 6e-7, f"r={r} n={n} {name} (published)")
        else:
            out += _close(got, ref, tol, f"r={r} n={n} {name}")
    if _node(row["L_nu_norm"], n) != l_nu:
        out.append(f"r={r} n={n} L median {_node(row['L_nu_norm'], n)} != {l_nu}")
    if _node(row["L_theta_norm"], n) != l_th:
        out.append(f"r={r} n={n} L mode {_node(row['L_theta_norm'], n)} != {l_th}")
    return out


def map_row_problems(r: int, row: dict, refs: dict) -> list[str]:
    n = row["n"]
    tol = refs["STATS_TOL"]
    out = []
    if r == 4:
        want = refs["MAP_STATS_R4"].get(n)
        if want is None:
            return [f"no reference row for r=4 n={n}"]
        cols = ("L_mu_norm", "L_sigma2_norm", "S_mu_norm", "S_sigma2_norm")
        for col, ref in zip(cols, want):
            out += _close(row[col], ref, tol, f"r=4 n={n} {col}")
        return out
    want = refs["MAP_STATS"][r].get(n)
    if want is None:
        return [f"no reference row for r={r} n={n}"]
    l_mu, l_s2, l_nu, s_mu, s_s2, s_nu = want
    for col, ref in (("L_mu_norm", l_mu), ("L_sigma2_norm", l_s2),
                     ("S_mu_norm", s_mu), ("S_sigma2_norm", s_s2)):
        out += _close(row[col], ref, tol, f"r={r} n={n} {col}")
    for col, ref in (("L_nu_norm", l_nu), ("S_nu_norm", s_nu)):
        if _node(row[col], n) != ref:
            out.append(f"r={r} n={n} {col} node {_node(row[col], n)} != {ref}")
    return out


def constants_problems(rows: list[dict], refs: dict) -> list[str]:
    """Criterion 08/09 tolerances for every catalog constant."""
    wanted = {}
    for table, tol in (("LARGEST_MOMENTS", 1e-10), ("SMALLEST_CLOSED_FORMS", 1e-14),
                       ("SMALLEST_SECOND_MOMENTS", 1e-8), ("SMALLEST_CORRECTED", 1e-8),
                       ("MEDIANS_AND_MODE", 1e-8)):
        for name, value in refs[table].items():
            wanted[name] = (value, tol)
    wanted["xi_1"] = (1.0 / math.sqrt(math.e), 1e-12)
    got = {row["name"]: row["value"] for row in rows}
    out = [f"missing constant {name}" for name in wanted if name not in got]
    for name, value in got.items():
        if name not in wanted:
            out.append(f"unreferenced constant {name}")
        else:
            out += _close(value, *wanted[name], name)
    return out


def scan_problems(pmf, summary, refs: dict) -> list[str]:
    """summarize checked from outside, plus the published row where one exists."""
    n, r, side = pmf.n, pmf.rank, pmf.side
    mean = math.fsum(k * p for k, p in enumerate(pmf.probs))
    out = _close(summary.mean, mean, 1e-9 * n, f"n={n} r={r} {side.value} mean")
    if pmf.kind is not M:
        return out
    tol = refs["STATS_TOL"]
    if r in refs["MAP_STATS"] and n in refs["MAP_STATS"][r]:
        l_mu, l_s2, _, s_mu, s_s2, _ = refs["MAP_STATS"][r][n]
        mu, s2 = (l_mu, l_s2) if side is L else (s_mu, s_s2)
    elif r == 4 and n in refs["MAP_STATS_R4"]:
        l_mu, l_s2, s_mu, s_s2 = refs["MAP_STATS_R4"][n]
        mu, s2 = (l_mu, l_s2) if side is L else (s_mu, s_s2)
    else:
        return out
    out += _close(summary.normalized_mean, mu, tol, f"n={n} r={r} {side.value} mu")
    out += _close(summary.normalized_variance, s2, tol, f"n={n} r={r} {side.value} sigma2")
    return out


# ---------------------------------------------------------------------------
# operations

def _cli_json(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue()
    return code, json.loads(text) if text.strip() else None


def _table_op(kind: str, engine: str, r: int, ns, refs: dict, row_problems):
    argv = ["table", "--kind", kind, "--rank", str(r), "--n", ",".join(map(str, ns)),
            "--engine", engine, "--format", "json"]

    def op() -> list[str]:
        code, doc = _cli_json(argv)
        if code != 0 or doc is None:
            return [f"exit code {code}"]
        out = [] if [row["n"] for row in doc["rows"]] == list(ns) else ["rows missing"]
        for row in doc["rows"]:
            out += row_problems(r, row, refs)
        return out

    return " ".join(argv), op


def _constants_op(refs: dict):
    def op() -> list[str]:
        code, doc = _cli_json(["constants", "--format", "json"])
        if code != 0 or doc is None:
            return [f"exit code {code}"]
        return constants_problems(doc, refs)
    return "constants", op


def _suite_op(suite: str):
    def op() -> list[str]:
        code, doc = _cli_json(["verify", "--suite", suite, "--format", "json"])
        if doc is None:
            return [f"exit code {code}"]
        out = [f"{c['name']}: {c['detail']}" for s in doc["suites"]
               for c in s["checks"] if not c["passed"]]
        return out if out or code == 0 else [f"exit code {code}"]
    return f"verify --suite {suite}", op


def _cross_op(n: int, r: int, side: Side):
    def op() -> list[str]:
        window = exact.pmf(P, n, r, side).probs
        cumulative = ktp.pmf_from_tables(r, n, side).probs
        return [] if window == cumulative else ["window and cumulative routes differ"]
    return f"exact.pmf == ktp.pmf_from_tables P n={n} r={r} {side.value}", op


def _oracle_op(kind: ObjectKind, n: int):
    def op() -> list[str]:
        out = []
        for r in (1, 2, 3, 4):
            for side in (L, S):
                window = exact.pmf(kind, n, r, side).probs
                if window != oracle.enumerate_pmf(kind, n, r, side).probs:
                    out.append(f"r={r} {side.value}: exact.pmf differs from enumeration")
        return out
    return f"exact.pmf == oracle.enumerate_pmf {kind.value} n={n}", op


def _scan_op(kind: ObjectKind, n: int, r: int, side: Side, refs: dict):
    def op() -> list[str]:
        pmf = exact.pmf_float(kind, n, r, side)
        return scan_problems(pmf, stats.summarize(pmf), refs)
    return f"pmf_float {kind.value} n={n} r={r} {side.value}", op


def scan_stream(rng: random.Random) -> list[tuple]:
    """Every (kind, n, r, side) with n <= SCAN_N, in a seeded order.

    Per (kind, side, r) the stream first asks for each anchor n and then the
    smaller sizes up to it in shuffled order, so every key grows exactly at
    the anchors whatever the seed; the keys themselves are interleaved at
    random.  A free shuffle would make the grow sizes, and with them the
    work, depend on the seed.
    """
    per_key = []
    for kind in (P, M):
        for r in (1, 2, 3, 4):
            for side in (L, S):
                seq, low = [], 1
                for anchor in SCAN_ANCHORS:
                    rest = list(range(low, anchor))
                    rng.shuffle(rest)
                    seq += [anchor] + rest
                    low = anchor + 1
                per_key.append([(kind, n, r, side) for n in seq])
    # random interleaving that keeps each key's own order
    slots = [i for i, seq in enumerate(per_key) for _ in seq]
    rng.shuffle(slots)
    cursor = [0] * len(per_key)
    out = []
    for i in slots:
        out.append(per_key[i][cursor[i]])
        cursor[i] += 1
    return out


def _part(name: str, seed: int, refs: dict) -> list[tuple]:
    """The operations of one part of a workload."""
    if name == "perm-tables":
        ops = [_table_op("permute", "ktp-float", r, ns, refs, perm_row_problems)
               for r, ns in PERM_GRID.items()]
        return ops + [_constants_op(refs)]
    if name == "map-tables":
        return [_table_op("mapping", "exact-float", r, ns, refs, map_row_problems)
                for r, ns in MAP_GRID.items()]
    if name == "pmf-scan":
        return [_scan_op(*query, refs) for query in scan_stream(random.Random(seed))]
    return ([_suite_op("small-exact")]
            + [_oracle_op(kind, n) for kind, top in ORACLE_N.items()
               for n in range(1, top + 1)]
            + [_cross_op(n, r, side) for r in (2, 3, 4) for side in (L, S)
               for n in range(1, CROSS_N + 1)])


# Each workload runs its parts in this order in one process.  tables holds
# the CLI table sweeps (float tables), library the library queries and the
# exact verification routes.  The parts reproduce fixed published grids,
# except pmf-scan, whose query order comes from the seed.
PARTS = {"tables": ("perm-tables", "map-tables"), "library": ("pmf-scan", "verify")}
WORKLOADS = tuple(PARTS)


def build(workload: str, seed: int, refs: dict) -> list[tuple]:
    """The operations of one workload, in order."""
    if workload not in PARTS:
        raise ValueError(f"unknown workload {workload!r}")
    return [op for part in PARTS[workload] for op in _part(part, seed, refs)]
