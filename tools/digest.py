"""SHA-256 digests of the tables and paper outputs this checkout computes.

    python3 tools/digest.py > digest.txt

Prints one line per item, "<sha256>  <item>": the threshold-chain tables
(exact._build_chain, both kinds and sides, ranks 1..4, built cold from
rank 0 and warm from a held rank r-1 table), the exact and float
permutation tables (ktp._u_rows, ktp._v_rows and ktp._v_norm, cold and
warm), row 0 (the empty object) of each of those builders and of the
Stirling columns at n_max = 0 and 3, ranks 1..4 and n_max + 1, the
public ktp tables and PMFs read through the store at ranks up to and
past n + 1 (sizes asked in ascending and in descending order),
the smallest-side ktp PMFs at ranks 5..8 and every size up to 40, the
Stirling cycle numbers c(n, k) for n <= 200 and k <= 5 (asked in
ascending and in descending n), the summaries (stats.summarize) of the
float PMFs at every size up to 200 (permutations) and 100 (mappings) and
of the exact PMFs up to 12, both kinds and sides, ranks 1..4, the window
recursion's exact PMFs (exact.pmf) at ranks 1..4 and every size up to 40
(permutations) and 30 (mappings), asked in ascending order so that each
sweep crosses several slot widths of the window memo, and again at ranks
6 down to 1 (sizes up to 30 and 20) from one empty memo, so that lower
ranks read rows that higher ones built, the pieces of each
Dickman table, and the stdout and exit code of every command that prints
a published table or constant.  Two checkouts compute the same numbers
when their outputs have no diff:

    diff <(python3 tools/digest.py) <(python3 /other/checkout/tools/digest.py)

The script imports permap from the ``src`` beside it and runs each
command in a fresh interpreter, so the store starts empty each time.
Standard library and numpy only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from permap import asymptotics, exact, ktp  # noqa: E402
from permap.kinds import ObjectKind, Side  # noqa: E402
from permap.stats import summarize  # noqa: E402

RANKS = (1, 2, 3, 4)
# the paper's largest sizes, plus small ones where ranks pass n + 1 or a
# table is one column wide
CHAIN_SIZES = {ObjectKind.PERMUTATION: (1, 2, 3, 5, 37, 200, 1500),
               ObjectKind.MAPPING: (1, 2, 3, 5, 37, 200, 400)}
V_NORM_SIZES = (1, 2, 3, 5, 37, 200, 1500)
EXACT_SIZES = (0, 1, 2, 3, 5, 37, 120)
# builds whose row 0, the empty object, is hashed, at ranks 1..4 and n_max + 1
ROW_ZERO_SIZES = (0, 3)
# sizes of the store reads; each is asked at ranks 1..4 and past n + 1
STORE_SIZES = (0, 1, 2, 3, 5, 20)
# the smallest-side ktp PMFs past the paper's ranks, at every size 1..top
HIGH_RANKS, HIGH_RANK_TOP = (5, 6, 7, 8), 40
# summaries of every size 1..top: float PMFs per kind, exact PMFs of both kinds
SUMMARY_TOPS = {ObjectKind.PERMUTATION: 200, ObjectKind.MAPPING: 100}
EXACT_SUMMARY_TOP = 12
# window-recursion PMFs of every size 1..top: t_n outgrows two or more slot widths
WINDOW_TOPS = {ObjectKind.PERMUTATION: 40, ObjectKind.MAPPING: 30}
# the same PMFs with ranks asked from the highest down, from one empty memo,
# so that the lower ranks read rows first built for the higher ones
DESCENDING_RANKS, DESCENDING_TOPS = (6, 5, 4, 3, 2, 1), {ObjectKind.PERMUTATION: 30,
                                                        ObjectKind.MAPPING: 20}

PERM_SIZES = "1000,1500,2000,2500"
COMMANDS = [
    *(["table", "--kind", "permutation", "--rank", str(r), "--n", PERM_SIZES, *engine,
       "--format", "json"] for r in (2, 3, 4) for engine in (["--engine", "ktp-float"], [])),
    *(["table", "--kind", "mapping", "--rank", str(r), "--n", "100,200,300,400",
       "--format", "json"] for r in (2, 3, 4)),
    ["table", "--kind", "mapping", "--rank", "2", "--n", "432,433,434,435", "--format", "json"],
    ["constants", "--format", "json"],
    ["verify", "--suite", "all", "--format", "json"],
]


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _held(n_max: int) -> tuple[int, ...]:
    """Sizes of a held rank r-1 table for a build at n_max: n_max itself and larger."""
    return (n_max, n_max + n_max // 4 + 1)


def _cold_warm(label: str, build, sizes, sha) -> list[str]:
    """Digests of build(r, n) at ranks 1..4, cold from rank 0 and warm from a
    held rank r-1 table, as "<sha>  <label> r=<r> cold|warm" lines."""
    lines = []
    for r in RANKS:
        cold = [build(r, n) for n in sizes]
        lines.append(f"{sha(cold)}  {label} r={r} cold")
        if r == 1:
            continue
        warm = [build(r, n, build(r - 1, held))
                for n in sizes if r <= n + 1 for held in _held(n)]
        lines.append(f"{sha(warm)}  {label} r={r} warm")
    return lines


def chain_lines() -> list[str]:
    lines = []
    for kind, sizes in CHAIN_SIZES.items():
        for side in Side:
            lines += _cold_warm(f"_build_chain {kind.value} {side.value}",
                                lambda r, n, lower=None: exact._build_chain(kind, side, r, n, lower),
                                sizes, lambda pairs: _sha(*(a for pair in pairs for a in pair)))
    return lines


def v_norm_lines() -> list[str]:
    return _cold_warm("_v_norm", ktp._v_norm, V_NORM_SIZES, lambda tables: _sha(*tables))


def exact_table_lines() -> list[str]:
    return [line for build in (ktp._u_rows, ktp._v_rows)
            for line in _cold_warm(build.__name__, build, EXACT_SIZES,
                                   lambda rows: hashlib.sha256(repr(rows).encode()).hexdigest())]


def row_zero_lines() -> list[str]:
    got = []
    for n in ROW_ZERO_SIZES:
        for r in (*RANKS, n + 1):
            for kind in ObjectKind:
                for side in Side:
                    table, tau = exact._build_chain(kind, side, r, n)
                    got.append((table[0].tolist(), tau[0].item()))
            got += [[column[0] for column in build(r, n)] for build in (ktp._u_rows, ktp._v_rows)]
            got += [ktp._v_norm(r, n)[0].tolist(), ktp._stirling(r, n)[0]]
    return [f"{hashlib.sha256(repr(got).encode()).hexdigest()}  row 0 of every builder "
            f"n_max={','.join(map(str, ROW_ZERO_SIZES))} r=1..4,n_max+1"]


# each public read of the store
STORE_READS = {
    "longest_table": lambda r, n: ktp.longest_table(r, n + 2, n),
    "shortest_table": lambda r, n: ktp.shortest_table(r, n + 2, n),
    "pmf_from_tables largest": lambda r, n: ktp.pmf_from_tables(r, n, Side.LARGEST),
    "pmf_from_tables smallest": lambda r, n: ktp.pmf_from_tables(r, n, Side.SMALLEST),
    "pmf_from_tables_float smallest":
        lambda r, n: ktp.pmf_from_tables_float(r, n, Side.SMALLEST),
}


def store_lines() -> list[str]:
    lines = []
    for name, read in STORE_READS.items():
        # the PMF routes refuse n = 0
        sizes = STORE_SIZES if name.endswith("table") else STORE_SIZES[1:]
        asks = [(r, n) for n in sizes for r in (*RANKS, n + 2, n + 5, 10**6)]
        for order, seq in (("ascending", asks), ("descending", asks[::-1])):
            exact._TABLES.clear()
            got = [read(r, n) for r, n in seq]
            lines.append(f"{hashlib.sha256(repr(got).encode()).hexdigest()}  "
                         f"{name} {order}")
    exact._TABLES.clear()
    got = [read(r, n, Side.SMALLEST) for read in (ktp.pmf_from_tables, ktp.pmf_from_tables_float)
           for r in HIGH_RANKS for n in range(1, HIGH_RANK_TOP + 1)]
    lines.append(f"{hashlib.sha256(repr(got).encode()).hexdigest()}  pmf_from_tables and "
                 f"pmf_from_tables_float smallest r=5..8 n=1..{HIGH_RANK_TOP}")
    exact._TABLES.clear()
    return lines


def stirling_lines() -> list[str]:
    asks = [(n, k) for n in range(201) for k in range(6)]
    got = []
    for seq in (asks, asks[::-1]):
        exact._TABLES.clear()
        got += [ktp.stirling_cycle(n, k) for n, k in seq]
    exact._TABLES.clear()
    return [f"{hashlib.sha256(repr(got).encode()).hexdigest()}  "
            "stirling_cycle n=0..200 k=0..5 ascending and descending"]


def _summary_sha(pmfs) -> str:
    # mean, variance, median, mode and the normalised values; str writes a
    # Fraction as "p/q" and a float by its shortest round-trip digits
    text = "\n".join(" ".join(map(str, astuple(summarize(p)))) for p in pmfs)
    return hashlib.sha256(text.encode()).hexdigest()


def summary_lines() -> list[str]:
    lines = []
    exact._TABLES.clear()
    for kind, top in SUMMARY_TOPS.items():
        for side in Side:
            for r in RANKS:
                pmfs = (exact.pmf_float(kind, n, r, side) for n in range(1, top + 1))
                lines.append(f"{_summary_sha(pmfs)}  summarize pmf_float "
                             f"{kind.value} {side.value} r={r} n=1..{top}")
    exact._TABLES.clear()
    pmfs = (exact.pmf(kind, n, r, side) for kind in ObjectKind for side in Side
            for r in RANKS for n in range(1, EXACT_SUMMARY_TOP + 1))
    lines.append(f"{_summary_sha(pmfs)}  summarize pmf n=1..{EXACT_SUMMARY_TOP}")
    return lines


def window_lines() -> list[str]:
    lines = []
    for kind, top in WINDOW_TOPS.items():
        for side in Side:
            exact._MEMO.clear()
            text = "\n".join(" ".join(map(str, exact.pmf(kind, n, r, side).probs))
                             for n in range(1, top + 1) for r in RANKS)
            lines.append(f"{hashlib.sha256(text.encode()).hexdigest()}  "
                         f"pmf {kind.value} {side.value} r=1..4 n=1..{top} ascending")
    exact._MEMO.clear()
    text = "\n".join(" ".join(map(str, exact.pmf(kind, n, r, side).probs))
                     for kind, top in DESCENDING_TOPS.items() for side in Side
                     for r in DESCENDING_RANKS for n in range(1, top + 1))
    lines.append(f"{hashlib.sha256(text.encode()).hexdigest()}  pmf both kinds and sides "
                 f"r={DESCENDING_RANKS[0]}..{DESCENDING_RANKS[-1]} descending")
    exact._MEMO.clear()
    return lines


def dickman_lines() -> list[str]:
    lines = []
    for r in RANKS:
        pieces = asymptotics._table(r).pieces
        lines.append(f"{_sha(*(a for p in pieces for a in (p.coef, p.domain, p.window)))}  "
                     f"dickman r={r}")
    return lines


def command_lines() -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    lines = []
    for argv in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "permap.cli", *argv], env=env,
                              capture_output=True, check=False)
        h = hashlib.sha256(done.stdout).hexdigest()
        lines.append(f"{h}  exit={done.returncode} permap {' '.join(argv)}")
    return lines


def main() -> int:
    for group in (chain_lines, v_norm_lines, exact_table_lines, row_zero_lines, store_lines,
                  stirling_lines, summary_lines, window_lines, dickman_lines, command_lines):
        for line in group():
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
