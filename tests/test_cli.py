"""Command-line front end: formats, round-trips, exit codes, suites."""

from __future__ import annotations

import csv
import io
import json

import pytest

from permap import asymptotics, exact, ktp
from permap.cli import _ENGINES, main


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# table command


def test_table_json_small_oracle(capsys) -> None:
    code, out, _ = run(capsys, "table", "--kind", "permute", "--rank", "2",
                       "--n", "4", "--engine", "oracle", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"][0] == "n"
    row = doc["rows"][0]
    assert row["n"] == 4
    # raw mean of the second-largest cycle at n=4 is 7/8; the table reports
    # the normalized value mean/n
    assert row["L_mu_norm"] == pytest.approx(0.875 / 4, abs=1e-15)
    assert row["L_theta_norm"] == pytest.approx(0.25, abs=1e-15)


def test_table_json_writes_null_for_an_undefined_statistic(capsys) -> None:
    # the smallest side has no scale at n = 1; RFC 8259 has no NaN
    def reject(name):
        raise ValueError(f"not valid JSON: {name}")

    code, out, _ = run(capsys, "table", "--kind", "permute", "--n", "1", "--format", "json")
    assert code == 0
    row = json.loads(out, parse_constant=reject)["rows"][0]
    assert row["S_mu_norm"] is None and row["S_sigma2_norm"] is None
    assert row["L_mu_norm"] == 0.0


def test_table_csv_round_trip(capsys) -> None:
    args = ("table", "--kind", "permute", "--rank", "2", "--n", "4,5,6",
            "--engine", "exact-float")
    code, out_json, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    rows_json = json.loads(out_json)["rows"]

    code, out_csv, _ = run(capsys, *args, "--format", "csv")
    assert code == 0
    parsed = list(csv.DictReader(io.StringIO(out_csv)))
    assert [int(r["n"]) for r in parsed] == [4, 5, 6]
    for got, want in zip(parsed, rows_json):
        for col, value in want.items():
            if col == "n":
                continue
            # repr round-trip must be exact, not merely close
            assert float(got[col]) == float(value), col


def test_table_csv_headers_by_kind_and_rank(capsys) -> None:
    _, out, _ = run(capsys, "table", "--kind", "permute", "--rank", "2",
                    "--n", "5", "--format", "csv")
    assert out.splitlines()[0] == ("n,L_mu_norm,L_sigma2_norm,L_nu_norm,"
                                   "L_theta_norm,S_mu_norm,S_sigma2_norm")
    _, out, _ = run(capsys, "table", "--kind", "map", "--rank", "2",
                    "--n", "5", "--format", "csv")
    assert out.splitlines()[0] == ("n,L_mu_norm,L_sigma2_norm,L_nu_norm,"
                                   "S_mu_norm,S_sigma2_norm,S_nu_norm")
    _, out, _ = run(capsys, "table", "--kind", "map", "--rank", "4",
                    "--n", "5", "--format", "csv")
    assert out.splitlines()[0] == "n,L_mu_norm,L_sigma2_norm,S_mu_norm,S_sigma2_norm"


def test_table_side_filter(capsys) -> None:
    _, out, _ = run(capsys, "table", "--kind", "permute", "--rank", "2",
                    "--n", "5", "--side", "largest", "--format", "csv")
    assert out.splitlines()[0] == "n,L_mu_norm,L_sigma2_norm,L_nu_norm,L_theta_norm"


def test_table_text_rounding(capsys) -> None:
    code, out, _ = run(capsys, "table", "--kind", "permute", "--rank", "2",
                       "--n", "4", "--engine", "oracle")
    assert code == 0
    assert "0.218750" in out  # six decimals for means
    assert "0.2500" in out  # four for scaled modes


def test_table_engines_agree(capsys) -> None:
    baseline = None
    for engine in ("exact", "exact-float", "ktp", "ktp-float", "oracle"):
        _, out, _ = run(capsys, "table", "--kind", "permute", "--rank", "2",
                        "--n", "6", "--engine", engine, "--format", "json")
        row = json.loads(out)["rows"][0]
        if baseline is None:
            baseline = row
        for col, value in baseline.items():
            assert row[col] == pytest.approx(value, abs=1e-10), (engine, col)


def test_table_output_file(capsys, tmp_path) -> None:
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, "table", "--kind", "permute", "--rank", "2",
                       "--n", "4", "--format", "csv", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("n,")


def _fresh_float_tables(monkeypatch) -> None:
    monkeypatch.setattr(exact, "_TABLES", {})


@pytest.mark.parametrize("kind, engine", [("permute", "exact-float"),
                                          ("permute", "ktp-float"),
                                          ("mapping", "exact-float")])
def test_table_sweep_rows_match_one_size_calls(capsys, monkeypatch, kind, engine) -> None:
    def rows(sizes: str) -> list[dict]:
        _fresh_float_tables(monkeypatch)
        _, out, _ = run(capsys, "table", "--kind", kind, "--rank", "3", "--n", sizes,
                        "--engine", engine, "--format", "json")
        return json.loads(out)["rows"]

    sweep = rows("60,20,40,20")
    assert [row["n"] for row in sweep] == [60, 20, 40, 20]
    for got in sweep:
        want = rows(str(got["n"]))[0]
        assert got == want  # a cell never depends on the table size


@pytest.mark.parametrize("kind, engine, builds", [("permute", "ktp-float", (1, 1)),
                                                  ("permute", "exact-float", (2, 0)),
                                                  ("mapping", "exact-float", (2, 0))])
def test_table_sweep_builds_once_per_side_and_rank(capsys, monkeypatch, kind, engine,
                                                   builds) -> None:
    _fresh_float_tables(monkeypatch)
    counts = {"chain": 0, "v_norm": 0}
    for module, name, count in ((exact, "_build_chain", "chain"), (ktp, "_v_norm", "v_norm")):
        def counted(*args, build=getattr(module, name), count=count):
            counts[count] += 1
            return build(*args)

        monkeypatch.setattr(module, name, counted)
    code, _, _ = run(capsys, "table", "--kind", kind, "--rank", "2",
                     "--n", "25,50,75,100", "--engine", engine, "--format", "csv")
    assert code == 0
    assert (counts["chain"], counts["v_norm"]) == builds


def test_table_json_flags_conjectural_columns(capsys) -> None:
    def flag(*argv: str) -> bool:
        code, out, _ = run(capsys, "table", "--kind", "permute", "--n", "8",
                           "--format", "json", *argv)
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"kind", "rank", "engine", "conjectural", "columns", "rows"}
        return doc["conjectural"]

    for engine in ("ktp", "ktp-float"):
        assert flag("--engine", engine, "--rank", "2") is True
        assert flag("--engine", engine, "--rank", "3", "--side", "smallest") is True
        assert flag("--engine", engine, "--rank", "2", "--side", "largest") is False
        assert flag("--engine", engine, "--rank", "1") is False
    for engine in ("exact", "exact-float", "oracle"):
        assert flag("--engine", engine, "--rank", "2") is False


def test_table_text_and_csv_note_conjectural_columns(capsys) -> None:
    for fmt in ("text", "csv"):
        code, out, err = run(capsys, "table", "--kind", "permute", "--rank", "2",
                             "--n", "8", "--engine", "ktp-float", "--format", fmt)
        assert code == 0
        assert "conjectural" in err and "conjectural" not in out
        assert len(err.strip().splitlines()) == 1
        code, out, err = run(capsys, "table", "--kind", "permute", "--rank", "2",
                             "--n", "8", "--engine", "exact-float", "--format", fmt)
        assert code == 0
        assert err == ""


def test_exact_engine_cost_note(capsys) -> None:
    code, _, err = run(capsys, "table", "--kind", "permute", "--rank", "1",
                       "--n", "81", "--engine", "exact", "--format", "csv")
    assert code == 0
    assert "exact big-integer engine" in err


# ---------------------------------------------------------------------------
# constants command


def test_constants_json_values(capsys) -> None:
    code, out, _ = run(capsys, "constants", "--format", "json")
    assert code == 0
    table = {entry["name"]: entry for entry in json.loads(out)}
    assert table["x_0"]["value"] == pytest.approx(0.23503964593509109370, abs=1e-11)
    assert table["sqrt2*SG_1/2(3,2)"]["value"] == pytest.approx(
        0.70003819275062251409, abs=1e-8)
    assert table["exp(-gamma)/24"]["value"] == pytest.approx(
        0.02339414514862021540, abs=1e-14)
    assert all(entry["error"] <= 1e-8 for entry in table.values())


def test_constants_text_and_csv(capsys) -> None:
    code, out, _ = run(capsys, "constants")
    assert code == 0
    assert "x_0" in out and "xi_2" in out
    code, out, _ = run(capsys, "constants", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    names = {row["name"] for row in rows}
    assert {"x_0", "xi_2", "LG_1(2,1)"} <= names
    for row in rows:
        value = float(row["value"])
        assert float(repr(value)) == value


# ---------------------------------------------------------------------------
# verify command


def test_verify_small_exact_passes(capsys) -> None:
    code, out, _ = run(capsys, "verify", "--suite", "small-exact", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    checks = report["suites"][0]["checks"]
    assert len(checks) >= 8
    assert all(chk["passed"] for chk in checks)


def test_verify_all_suites_pass(capsys) -> None:
    code, out, _ = run(capsys, "verify", "--suite", "all", "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    suites = {suite["suite"]: suite for suite in report["suites"]}
    assert set(suites) == {"small-exact", "oracle", "mode-shift"}
    for suite in suites.values():
        assert suite["checks"]
        assert all(chk["passed"] for chk in suite["checks"]), suite["suite"]


def test_verify_text_output(capsys) -> None:
    code, out, _ = run(capsys, "verify", "--suite", "small-exact")
    assert code == 0
    assert "PASS" in out
    assert out.strip().splitlines()[-1] == "OK"


# ---------------------------------------------------------------------------
# config errors (distinct exit code)


def test_config_error_exit_codes(capsys, tmp_path) -> None:
    unwritable = str(tmp_path / "missing" / "x.txt")
    cases = [
        ("table", "--kind", "map", "--rank", "2", "--n", "5", "--engine", "ktp"),
        ("table", "--kind", "map", "--rank", "2", "--n", "5", "--engine", "ktp-float"),
        ("table", "--kind", "permute", "--rank", "0", "--n", "5"),
        ("table", "--kind", "permute", "--rank", "2", "--n", "0"),
        ("table", "--kind", "permute", "--rank", "2", "--n", "9", "--engine", "oracle"),
        ("table", "--kind", "permute", "--rank", "5", "--n", "10", "--engine", "ktp",
         "--side", "smallest"),
        ("table", "--kind", "permute", "--rank", "5", "--n", "4", "--engine", "ktp",
         "--side", "smallest"),
        ("table", "--kind", "permute", "--rank", "5", "--n", "10", "--engine", "ktp-float",
         "--side", "smallest"),
        ("table", "--kind", "permute", "--n", "5", "--output", unwritable),
        ("constants", "--output", unwritable),
        ("verify", "--suite", "small-exact", "--output", unwritable),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:") and out == ""
        if "--output" in argv:
            assert err.startswith(f"error: cannot write {unwritable}: ") and "Traceback" not in err
    # rejected by the parser, which exits 2 itself
    negative_digits = "error: argument --digits: digits must be >= 0"
    no_sizes = "error: argument --n: bad integer list: ','"
    for argv, message in (
        (("table", "--kind", "permute", "--n", "5", "--digits", "-1"), negative_digits),
        (("constants", "--digits", "-1"), negative_digits),
        (("table", "--kind", "permute", "--n", ",", "--engine", "ktp-float"), no_sizes),
        (("table", "--kind", "permute", "--n", ",", "--engine", "exact"), no_sizes),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2, argv
        assert message in err and out == ""


@pytest.mark.parametrize("kind", ["permute", "map"])
def test_ranks_far_above_n_exit_0_or_2_without_a_traceback(capsys, kind) -> None:
    # past rank n all the mass sits at 0: every engine that serves the
    # request answers at once, with mean and variance 0, and no scale
    # log(n)^r is formed where it overflows (n = 5) or underflows (n = 2)
    cases = [("--rank", str(rank), "--n", "2,5", "--engine", engine, "--side", side)
             for rank in (6, 1500, 2500, 10**6) for engine in _ENGINES
             for side in ("both", "largest")]  # ktp serves rank > 4 on the largest side only
    cases.append(("--rank", "2000", "--n", "5", "--engine", "ktp", "--side", "largest"))
    for argv in cases:
        code, out, err = run(capsys, "table", "--kind", kind, *argv, "--format", "json")
        assert code in (0, 2), argv
        if code == 2:
            assert err.startswith("error:") and out == "", argv
            continue
        for row in json.loads(out)["rows"]:
            for col in ("L_mu_norm", "L_sigma2_norm", "S_mu_norm", "S_sigma2_norm"):
                if col in row:
                    assert row[col] == 0.0, (argv, row)


def test_memory_error_exits_2_without_a_traceback(capsys, monkeypatch) -> None:
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(exact, "pmf_float", exhausted)
    code, out, err = run(capsys, "table", "--kind", "mapping", "--n", "434")
    assert code == 2 and out == ""
    assert err == "error: not enough memory for this request\n"


def test_unwritable_output_is_refused_before_any_work(capsys, monkeypatch, tmp_path) -> None:
    calls = []
    monkeypatch.setattr(exact, "pmf_float", lambda *args: calls.append(args))
    for target in (tmp_path / "missing" / "x.txt", tmp_path):
        code, out, err = run(capsys, "table", "--kind", "mapping", "--rank", "2",
                             "--n", "434", "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")
    assert calls == []
    assert list(tmp_path.iterdir()) == []  # nothing created


def test_precision_error_has_its_own_exit_code(capsys, monkeypatch) -> None:
    def drifted(*args):
        raise exact.PrecisionError("mass-sum check failed: total = 1.1")

    monkeypatch.setattr(exact, "pmf_float", drifted)
    code, out, err = run(capsys, "table", "--kind", "mapping", "--rank", "2", "--n", "5")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "mass-sum" in err


def test_quadrature_guard_exits_3_without_a_traceback(capsys, monkeypatch) -> None:
    def inaccurate(*args, **kwargs):
        return 1.0, 1e-3, {}

    monkeypatch.setattr(asymptotics, "quad", inaccurate)
    monkeypatch.setattr(asymptotics, "_MOMENTS", {})
    code, out, err = run(capsys, "constants")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "quadrature" in err


def test_doctored_dickman_table_exits_3_without_a_traceback(capsys, monkeypatch) -> None:
    real = asymptotics._table(1)
    pieces = list(real.pieces)
    pieces[1] = pieces[1] + 0.5  # rho_1(1) = 1 becomes 1.5
    doctored = asymptotics.DickmanTable(real.r, real.x_max, tuple(pieces))
    monkeypatch.setattr(asymptotics, "_table", lambda r: doctored)
    code, out, err = run(capsys, "constants")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "rho_1" in err


def test_unknown_engine_is_rejected_by_parser(capsys) -> None:
    for engine in ("guess", "float"):  # float was an alias of exact-float
        with pytest.raises(SystemExit):
            main(["table", "--kind", "permute", "--rank", "2", "--n", "5",
                  "--engine", engine])
