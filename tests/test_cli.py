import json
import math
import os
import re
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import esbiii
from esbiii import Params, cdf, sample
from esbiii.cli import EXIT_BAD_INPUT, main, read_values
from esbiii.errors import DensityLimitWarning, ParseError

from importlib import resources

SCHEMA = json.loads(
    resources.files("esbiii").joinpath("schemas/output.schema.json").read_text()
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

TRUTH = Params(0.0, 1.0, 5.0, 0.2, 0.4)


def _write_sample(path, p=TRUTH, n=2000, seed=42):
    xs = sample(p, n, seed=seed)
    path.write_text("\n".join(format(v, ".17g") for v in xs) + "\n")
    return xs


def _csv_rows(text):
    rows = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        rows.append([float(t) for t in line.split(",")])
    return rows


class TestReadValues:
    def test_plain_column(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("# header\n1.5\n\n-2.5\n")
        assert read_values(str(f)).tolist() == [1.5, -2.5]

    def test_column_selection(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,10\n2,20\n")
        assert read_values(str(f), column=2).tolist() == [10.0, 20.0]
        f2 = tmp_path / "d2.txt"
        f2.write_text("1 10\n2 20\n")
        assert read_values(str(f2), column=1).tolist() == [1.0, 2.0]

    def test_bad_token_reports_line(self, tmp_path):
        f = tmp_path / "d.txt"
        f.write_text("1.0\nabc\n2.0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_values(str(f))

    def test_multi_column_needs_selector(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2\n")
        with pytest.raises(ParseError, match="--column"):
            read_values(str(f))

    def test_column_out_of_range(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("1,2\n")
        with pytest.raises(ParseError, match="out of range"):
            read_values(str(f), column=3)

    def test_missing_file(self):
        with pytest.raises(ParseError, match="cannot open"):
            read_values("/nonexistent/nope.txt")

    # whole-file parsing falls back to the line loop, whose values, messages
    # and line numbers these are
    @pytest.mark.parametrize(
        "raw, column, want",
        [
            (b"1.5\r\n-2.5\r\n", None, [1.5, -2.5]),
            (b"1.5\r-2.5\r", None, [1.5, -2.5]),
            (b"\n\n  3.25  \n\n\n", None, [3.25]),
            (b"# a\n1\n  # b\n2\n#\n", None, [1.0, 2.0]),
            (b"1_000\n2\n", None, [1000.0, 2.0]),
            (b"1\n1,2\n", None, ("2 columns found", 2)),
            (b"1\r\n2\r\n1 2\r\n", None, ("2 columns found", 3)),
            (b"1,2\n3\n", 1, [1.0, 3.0]),
            (b"1 2\n3 4\n", 1, [1.0, 3.0]),
            (b"1\n2\n", 2, ("column 2 out of range", 1)),
            (b"1\n2\n", 0, ("column 0 out of range", 1)),
            (b"1\n\nnan\n", None, ("non-finite value: 'nan'", 3)),
            (b"1\n-inf\n", 1, ("non-finite value: '-inf'", 2)),
            (b"1\n2\nx1\n", None, ("not a number: 'x1'", 3)),
            (b"# only\n\n", None, ("no data rows", None)),
            ("\u0661\u0662\n".encode(), None, [12.0]),
            (b"1e-400\n+.5\n", None, [0.0, 0.5]),
            (b"1\n-Infinity\n", None, ("non-finite value: '-Infinity'", 2)),
            (b"1e400\n", None, ("non-finite value: '1e400'", 1)),
            (b"1\n0x10\n", None, ("not a number: '0x10'", 2)),
            (b"1\n2\x00\n", None, ("not a number: '2\\\\x00'", 2)),
            (b"\xef\xbb\xbf1.5\n2.5\n", None, [1.5, 2.5]),
            (b"\xef\xbb\xbf", None, ("no data rows", None)),
            (b"1.5\n\xef\xbb\xbf2.5\n", None, ("not a number: '\\\\ufeff2.5'", 2)),
        ],
    )
    def test_whole_file_matches_the_line_loop(self, tmp_path, raw, column, want):
        f = tmp_path / "d.txt"
        f.write_bytes(raw)
        if isinstance(want, list):
            got = read_values(str(f), column)
            assert got.dtype == np.float64
            assert got.tolist() == want
            return
        message, line = want
        with pytest.raises(ParseError, match=message) as err:
            read_values(str(f), column)
        assert err.value.line == line

    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from(["", "   ", "# comment", "  # 1.5"]),
            ),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from(["%.17g", "%r"]),
        st.sampled_from(["\n", "\r\n"]),
    )
    def test_whole_file_cast_matches_float(self, tmp_path_factory, items, fmt, end):
        f = tmp_path_factory.mktemp("cast") / "d.txt"
        f.write_bytes(end.join(fmt % x if isinstance(x, float) else x for x in items).encode())
        want = [x for x in items if isinstance(x, float)]
        if not want:
            with pytest.raises(ParseError, match="no data rows"):
                read_values(str(f))
            return
        assert read_values(str(f)).tobytes() == np.array(want).tobytes()

    def test_file_that_is_not_utf8_is_a_parse_error(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_bytes(b"1.5\r\n# one\r2.5\n\xff\xfe2.5\n")
        for column in (None, 2):
            with pytest.raises(ParseError, match="not UTF-8") as err:
                read_values(str(f), column)
            assert err.value.line == 4
        f.write_bytes(b"1.5\n\xff\xfe2.5\n")
        with pytest.raises(ParseError, match="line 2: not UTF-8") as err:
            read_values(str(f))
        assert err.value.line == 2
        capsys.readouterr()
        out = str(tmp_path / "out.json")
        assert main(["fit", "--input", str(f), "--out", out]) == EXIT_BAD_INPUT
        assert main(["gof", "--input", str(f), "--params", "0,1,5,0.2,0.4", "--out", out]) == EXIT_BAD_INPUT
        assert capsys.readouterr().err.count("esbiii: error: line 2: not UTF-8") == 2

    def test_file_that_starts_with_a_byte_order_mark_fits(self, tmp_path):
        # spreadsheet and Windows editors write one; the fit sees the same data
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        _write_sample(plain, n=200, seed=1)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        fits = []
        for f in (plain, marked):
            out, gof = str(tmp_path / f"{f.stem}_fit.json"), str(tmp_path / f"{f.stem}_gof.json")
            assert main(["fit", "--input", str(f), "--out", out]) == 0
            assert main(["gof", "--input", str(f), "--fit-result", out, "--out", gof]) == 0
            with open(out, encoding="utf-8") as fh:
                fits.append(json.load(fh)["params"])
        assert fits[0] == fits[1]
        marked.write_bytes(b"\xef\xbb\xbf1.5\n2.5\n")
        out = str(tmp_path / "two_gof.json")
        assert main(["gof", "--input", str(marked), "--params", "0,1,5,0.2,0.4", "--out", out]) == 0

    def test_table_text_reads_back_bit_for_bit(self, tmp_path):
        from esbiii._g17 import table_text
        from test_g17 import NAMED

        bits = np.random.default_rng(20240613).integers(0, 2**64, 1_000_002, dtype=np.uint64)
        values = bits.view(np.float64)
        f = tmp_path / "d.txt"
        for col in (values[np.isfinite(values)], np.array([x for x in NAMED if math.isfinite(x)])):
            f.write_bytes(b"# values\n" + table_text([col]))
            assert read_values(str(f)).tobytes() == col.tobytes()

    # each token on a line of its own: float()'s value bit for bit, or the
    # line loop's error
    @pytest.mark.parametrize(
        "token",
        [
            "9007199254740993",  # 2**53 + 1, a tie
            "1e23",  # a tie as well
            "2.4703282292062327e-324",  # just below the subnormal tie: 0
            "2.4703282292062328e-324",  # just above it: 5e-324
            "2.4703282292062326e-324",
            "4.9406564584124654e-324",
            "2.2250738585072014e-308",
            "1.7976931348623157e308",
            "1.7976931348623158e308",  # finite: rounds down to the largest double
            "1.7976931348623159e308",  # non-finite
            "12345678901234567890",  # 20 and 30 significant digits
            "123456789012345678901234567890",
            "1234567890123456789",
            "0.1234567890123456789",
            "00000000000000000000001.5",  # leading zeros
            "0.000000000000000000000000000001",
            "-0",
            "-0.0e0",
            "+.5",
            "5.",
            ".5",
            "1E5",
            "1e+05",
            "1e-0005",
            "1e5e5",
            "e5",
            "-e5",
            "1.e5",
            ".5e3",
            "1e-5x",
            "1E+005",
            "-1.5E-7",
            "5e0001",
            "-1.2345678901234567e-100",
            "0.30000000000000004",
            "1e-265",
            "1e-266",
            "1e288",
            "1e289",
            "7e22",
            "-",
            "1e",
            "1e+",
            "1.2.3",
            "--1",
            "1_000",
            "nan",
            "١٢",
            "1" * 40,
        ],
    )
    def test_token_matches_float(self, tmp_path, token):
        f = tmp_path / "d.txt"
        f.write_bytes(b"1\n" + token.encode() + b"\n2\n")
        try:
            v = float(token)
        except ValueError:
            v = None
        if v is not None and math.isfinite(v):
            assert read_values(str(f)).tobytes() == np.array([1.0, v, 2.0]).tobytes()
            return
        message = "not a number" if v is None else "non-finite value"
        with pytest.raises(ParseError, match=re.escape(f"{message}: {token!r}")) as err:
            read_values(str(f))
        assert err.value.line == 2

    # the reader's grammar; lines drawn from its bytes, half of them near it
    GRAMMAR = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]{1,3})?")

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.text("0123456789+-.eE ", max_size=34),
                st.from_regex(r"[+-]?[0-9]{0,20}(\.[0-9]{0,20})?([eE][+-]?[0-9]{0,4})?", fullmatch=True),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_parsed_lines_are_in_the_grammar(self, lines):
        from esbiii._g17 import line_values

        raw = "\n".join(lines).encode()
        for starts, stops, values, parsed in line_values(raw):
            for a, b, v, p in zip(starts.tolist(), stops.tolist(), values.tolist(), parsed.tolist()):
                if p:
                    line = raw[a:b].decode()
                    assert self.GRAMMAR.fullmatch(line), line
                    assert np.float64(v).tobytes() == np.float64(float(line)).tobytes(), line

    def test_exponent_lines_take_the_fast_path(self):
        # float() gives these lines the same values, so only this shows them
        # leaving the exact pass; an exact tie between two doubles is left
        # to float() by design
        from fractions import Fraction

        from esbiii._g17 import line_values, table_text

        def tie(text):
            q = Fraction(text.decode())
            f = float(q)
            return 2 * q == Fraction(f) + Fraction(math.nextafter(f, math.inf if q > f else -math.inf))

        rng = np.random.default_rng(240)
        v = rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-240, 280, 20_000)
        for raw in (table_text([v]), "".join("%.16e\n" % x for x in v).encode(), "".join("%.10E\n" % x for x in v).encode()):
            blocks = list(line_values(raw))
            assert sum(p.size for _, _, _, p in blocks) == v.size + 1  # and the empty line after the last \n
            left = [raw[a:b] for starts, stops, _, p in blocks for a, b in zip(starts[~p].tolist(), stops[~p].tolist())]
            assert left[-1] == b"" and all(tie(text) for text in left[:-1]), left[:5]

    def test_line_of_a_lone_carriage_return(self, tmp_path):
        # \r ends a line, so "\r" alone is an empty line and "\r\r\n" two
        f = tmp_path / "d.txt"
        f.write_bytes(b"1.5\n\r-2.5\r\r\n3.25e-7\r")
        assert read_values(str(f)).tobytes() == np.array([1.5, -2.5, 3.25e-7]).tobytes()
        f.write_bytes(b"1.5\n\r\rx\n")
        with pytest.raises(ParseError, match="not a number: 'x'") as err:
            read_values(str(f))
        assert err.value.line == 4

    def test_line_ends_across_steps(self, tmp_path):
        # line ends are found a step at a time, the second 8 times the first:
        # mixed ends over three steps split as universal newlines split them
        from esbiii import _g17
        from esbiii.cli import _text_lines

        rng = np.random.default_rng(3)
        values = rng.standard_normal(80_000)
        ends = rng.choice(["\n", "\r\n", "\r"], values.size)
        data = "".join("%.17g%s" % (v, e) for v, e in zip(values, ends)).encode()
        assert len(data) > 9 * _g17._STEP
        blocks = list(_g17.line_values(data))
        lines = [data[a:b].decode() for starts, stops, _, _ in blocks for a, b in zip(starts.tolist(), stops.tolist())]
        assert lines == _text_lines(data)
        assert np.concatenate([v[p] for _, _, v, p in blocks]).tobytes() == values.tobytes()
        f = tmp_path / "d.txt"
        f.write_bytes(data)
        assert read_values(str(f)).tobytes() == values.tobytes()
        # a line outside the grammar deep in the file: the cast reads it
        f.write_bytes(data + b"  2.5\t\n")
        assert read_values(str(f)).tobytes() == np.append(values, 2.5).tobytes()

    def test_lowest_bit_index(self):
        from esbiii._g17 import _low

        words = [0] + [1 << k for k in range(32)] + [2**32 - 1, 0b101000, 2**31 + 2**30]
        assert _low(np.array(words, np.uint64)).tolist() == [32] + list(range(32)) + [0, 3, 30]


class TestCsvText:
    def test_rows_match_per_value_formatting(self):
        from esbiii.cli import _csv_bytes

        col = np.array([-0.0, 5e-324, 1e308, np.nan, np.inf, -np.inf, 0.1, -1.0 / 3.0])
        other = np.arange(col.size, dtype=float) * 1e-7
        text = _csv_bytes({"tool": "esbiii"}, "x,y", col, other).decode("utf-8")
        rows = [f"{format(float(a), '.17g')},{format(float(b), '.17g')}" for a, b in zip(col, other)]
        assert text == "# tool: esbiii\n# columns: x,y\n" + "\n".join(rows) + "\n"
        one = _csv_bytes({}, "value", col).decode("utf-8")
        assert one.split("\n")[1:-1] == [format(float(v), ".17g") for v in col]


class TestSampleCommand:
    def test_reruns_byte_identical(self, tmp_path):
        out = tmp_path / "s.csv"
        argv = [
            "sample", "--mu", "0", "--sigma", "1", "--c", "5", "--k", "0.2",
            "--eps", "0.4", "--n", "50", "--seed", "7", "--out", str(out),
        ]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_values_match_library(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main([
            "sample", "--mu", "1.5", "--sigma", "2", "--c", "5", "--k", "0.2",
            "--eps", "-0.3", "--n", "20", "--seed", "3", "--out", str(out),
        ]) == 0
        rows = _csv_rows(out.read_text())
        want = sample(Params(1.5, 2.0, 5.0, 0.2, -0.3), 20, seed=3)
        assert np.array_equal(np.array(rows).ravel(), want)

    def test_manifest_header(self, tmp_path):
        out = tmp_path / "s.csv"
        main([
            "sample", "--mu", "0", "--sigma", "1", "--c", "2", "--k", "1",
            "--eps", "0", "--n", "5", "--seed", "1", "--out", str(out),
        ])
        text = out.read_text()
        assert "# seed: 1" in text
        assert "# rng_algorithm:" in text
        assert "# columns: value" in text
        assert "timestamp" not in text


class TestEvalCommand:
    def test_cdf_at_location_is_split(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main([
            "eval", "--mode", "cdf", "--grid=-1:1:3", "--mu", "0",
            "--sigma", "1", "--c", "5", "--k", "0.2", "--eps", "0.4",
            "--out", str(out),
        ]) == 0
        rows = _csv_rows(out.read_text())
        assert rows[1][0] == 0.0
        assert rows[1][1] == (1.0 - 0.4) / 2.0

    def test_pdf_symmetric_mirror(self, tmp_path):
        out = tmp_path / "p.csv"
        main([
            "eval", "--mode", "pdf", "--grid=-2:2:5", "--mu", "0",
            "--sigma", "1", "--c", "2", "--k", "1", "--eps", "0",
            "--out", str(out),
        ])
        rows = np.array(_csv_rows(out.read_text()))
        assert rows[0][1] == pytest.approx(rows[4][1], rel=1e-14)
        assert rows[1][1] == pytest.approx(rows[3][1], rel=1e-14)

    def test_quantile_grid_must_be_probability(self, tmp_path, capsys):
        code = main([
            "eval", "--mode", "quantile", "--grid", "0:1:5", "--mu", "0",
            "--sigma", "1", "--c", "2", "--k", "1", "--eps", "0",
        ])
        assert code == 2
        assert "inside (0, 1)" in capsys.readouterr().err

    def test_quantile_matches_library(self, capsys):
        assert main([
            "eval", "--mode", "quantile", "--grid", "0.1:0.9:5", "--mu", "2",
            "--sigma", "3", "--c", "5", "--k", "0.2", "--eps", "-0.3",
        ]) == 0
        rows = _csv_rows(capsys.readouterr().out)
        from esbiii import quantile

        p = Params(2.0, 3.0, 5.0, 0.2, -0.3)
        for u, got in rows:
            assert got == pytest.approx(float(quantile(p, u)), rel=1e-15)

    def test_bimodal_curve_has_two_peaks(self, tmp_path):
        out = tmp_path / "b.csv"
        main([
            "eval", "--mode", "pdf", "--grid=-3:3:401", "--mu", "0",
            "--sigma", "1", "--c", "20", "--k", "0.2", "--eps", "0.5",
            "--out", str(out),
        ])
        f = np.array(_csv_rows(out.read_text()))[:, 1]
        g = f[np.concatenate(([True], np.diff(f) != 0.0))]
        peaks = int(np.sum((g[1:-1] > g[:-2]) & (g[1:-1] > g[2:])))
        assert peaks == 2

    def test_malformed_grid(self, capsys):
        assert main([
            "eval", "--mode", "pdf", "--grid=3:-3:10", "--mu", "0",
            "--sigma", "1", "--c", "2", "--k", "1", "--eps", "0",
        ]) == 2


@pytest.fixture(scope="module")
def fit_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fit")
    data = tmp / "data.txt"
    _write_sample(data)
    out = tmp / "fit.json"
    code = main(["fit", "--input", str(data), "--out", str(out)])
    return code, json.loads(out.read_text()), data


class TestFitCommand:

    def test_exit_code_and_kind(self, fit_run):
        code, doc, _ = fit_run
        assert code == 0
        assert doc["kind"] == "fit_result"
        assert doc["converged"] is True

    def test_schema_valid(self, fit_run):
        VALIDATOR.validate(fit_run[1])

    def test_recovers_truth(self, fit_run):
        p = fit_run[1]["params"]
        assert abs(p["mu"]) < 0.2
        assert abs(p["sigma"] - 1.0) < 0.3
        assert abs(p["c"] - 5.0) < 2.0
        assert abs(p["k"] - 0.2) < 0.15
        assert abs(p["eps"] - 0.4) < 0.2

    def test_report_is_consistent(self, fit_run):
        doc = fit_run[1]
        assert doc["free_params"] == 5
        assert doc["aic"] == pytest.approx(10.0 - 2.0 * doc["loglik"])
        assert doc["loglik"] == doc["trace"][-1][1]
        assert doc["cycles"] == doc["trace"][-1][0]
        assert doc["gof"]["ks_pvalue"] > 0.01
        assert doc["gof"]["n"] == 2000

    def test_manifest_echoes_command(self, fit_run):
        _, doc, data = fit_run
        assert doc["manifest"]["tool"] == "esbiii"
        assert str(data) in doc["manifest"]["command"]
        assert doc["manifest"]["config"]["fixed_c"] is None

    def test_fixed_c_pins_exactly(self, tmp_path):
        data = tmp_path / "d.txt"
        _write_sample(data, n=400, seed=9)
        out = tmp_path / "f.json"
        assert main([
            "fit", "--input", str(data), "--fixed-c", "5.0", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        VALIDATOR.validate(doc)
        assert doc["params"]["c"] == 5.0
        assert doc["free_params"] == 4
        assert doc["manifest"]["config"]["fixed_c"] == 5.0

    def test_init_flag_accepted(self, tmp_path):
        data = tmp_path / "d.txt"
        _write_sample(data, n=300, seed=2)
        out = tmp_path / "f.json"
        assert main([
            "fit", "--input", str(data), "--init", "0,1,5,0.2,0.4",
            "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["converged"] is True

    def test_non_numeric_line_exits_2(self, tmp_path, capsys):
        data = tmp_path / "bad.txt"
        data.write_text("1.0\nnot-a-number\n2.0\n")
        assert main(["fit", "--input", str(data)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_small_sample_exits_4(self, tmp_path, capsys):
        data = tmp_path / "small.txt"
        data.write_text("\n".join(str(v) for v in range(10)) + "\n")
        assert main(["fit", "--input", str(data)]) == 4

    def test_constant_data_exits_4(self, tmp_path):
        data = tmp_path / "const.txt"
        data.write_text("3.25\n" * 25)
        assert main(["fit", "--input", str(data)]) == 4

    def test_deterministic_under_pinned_epoch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        data = tmp_path / "d.txt"
        _write_sample(data, n=200, seed=6)
        out = tmp_path / "f.json"
        argv = ["fit", "--input", str(data), "--out", str(out)]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first
        assert b'"timestamp_utc": "2023-11-14T22:13:20+00:00"' in first

    def test_unconverged_fit_exits_3_with_its_document(self, tmp_path, monkeypatch, capsys):
        # this sample's fit stops unconverged on the sigma -> 0 ray
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        data = tmp_path / "d.txt"
        _write_sample(data, p=Params(0.0, 1.0, 0.8, 0.5, 0.2), n=200, seed=2)
        out = tmp_path / "f.json"
        argv = ["fit", "--input", str(data), "--out", str(out)]
        assert main(argv) == 3
        assert "fit did not converge; result written anyway" in capsys.readouterr().err
        first = out.read_bytes()
        doc = json.loads(first)
        VALIDATOR.validate(doc)
        assert doc["converged"] is False
        assert main(argv) == 3
        assert out.read_bytes() == first

    @pytest.mark.parametrize("epoch", ["abc", "99999999999999"])
    def test_malformed_epoch_exits_2_before_fitting(self, tmp_path, monkeypatch, capsys, epoch):
        import esbiii.cli

        def no_fit(*args, **kwargs):
            raise AssertionError("fit_ml ran")

        monkeypatch.setattr(esbiii.cli, "fit_ml", no_fit)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        data = tmp_path / "d.txt"
        _write_sample(data, n=50, seed=6)
        out = tmp_path / "f.json"
        assert main(["fit", "--input", str(data), "--out", str(out)]) == 2
        assert "SOURCE_DATE_EPOCH" in capsys.readouterr().err
        assert not out.exists()


def _required_orders(doc, node, path=""):
    """(path, keys, required) for each object of doc whose schema node lists required keys."""
    while "$ref" in node:
        node = SCHEMA["$defs"][node["$ref"].rsplit("/", 1)[1]]
    if not isinstance(doc, dict):
        return
    if "required" in node:
        yield path, list(doc), node["required"]
    for key, value in doc.items():
        sub = node.get("properties", {}).get(key)
        if sub is not None:
            yield from _required_orders(value, sub, f"{path}.{key}")


def test_documents_list_required_keys_in_schema_order(fit_run, tmp_path):
    # the documents' bytes follow their key order, which follows the report
    # dataclasses' field order: a reordered field must fail here
    _, fit_doc, data = fit_run
    gof_out, diag_out = tmp_path / "g.json", tmp_path / "d.json"
    assert main(["gof", "--input", str(data), "--params", "0,1,5,0.2,0.4", "--out", str(gof_out)]) == 0
    assert main(["diagnose", "--c", "2", "--k", "1", "--eps", "0", "--out", str(diag_out)]) == 0
    seen = set()
    for doc in (fit_doc, json.loads(gof_out.read_text()), json.loads(diag_out.read_text())):
        for path, keys, required in _required_orders(doc, SCHEMA["$defs"][doc["kind"]], doc["kind"]):
            assert [key for key in keys if key in required] == required, path
            seen.add(path)
    assert {
        "fit_result", "fit_result.params", "fit_result.gof", "gof_report", "gof_report.params",
        "gof_report.gof", "score_report", "score_report.params", "score_report.limits.mu",
        "score_report.limits.eps", "score_report.rho_conditions",
    } <= seen


class TestDiagnoseCommand:
    @pytest.mark.parametrize("epoch", ["abc", "99999999999999"])
    def test_malformed_epoch_exits_2(self, monkeypatch, capsys, epoch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        assert main(["diagnose", "--c", "2", "--k", "1", "--eps", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "SOURCE_DATE_EPOCH" in captured.err

    def test_schema_and_content(self, tmp_path):
        out = tmp_path / "d.json"
        assert main([
            "diagnose", "--c", "2", "--k", "1", "--eps", "0", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        VALIDATOR.validate(doc)
        assert doc["kind"] == "score_report"
        assert doc["bounded"] == {
            "mu": True, "sigma": True, "c": False, "k": True, "eps": True,
        }
        assert doc["x0"] == pytest.approx(1.4679, abs=2e-4)
        assert doc["tail"]["heavy"] is True
        assert doc["tail"]["lam"] == 1.0

    def test_boundary_case_reason(self, tmp_path):
        out = tmp_path / "d.json"
        assert main([
            "diagnose", "--c", "1", "--k", "1", "--eps", "0",
            "--lambda", "0.5", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        VALIDATOR.validate(doc)
        assert doc["x0"] is None
        assert doc["x0_reason"] == "ck=1"
        assert doc["tail"]["lam"] == 0.5

    @pytest.mark.parametrize(
        "c, k",
        [(c, k) for c in (1e77, 1e154, 1e300) for k in (1e-300, 0.5, 3.0)] + [(1.0, 1e300), (2.0, 1e200)],
    )
    def test_shapes_whose_quadratic_overflows(self, tmp_path, c, k):
        # the redescending point's quadratic squares a coefficient past the float range
        out = tmp_path / "d.json"
        assert main([
            "diagnose", "--c", repr(c), "--k", repr(k), "--eps", "0.3", "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        VALIDATOR.validate(doc)
        assert doc["x0"] > 0.0

    def test_peak_beyond_the_float_range(self, tmp_path):
        # x0 is about 1e990: no double holds it, yet psi_mu redescends
        out = tmp_path / "d.json"
        assert main(["diagnose", "--c", "0.1", "--k", "1e100", "--eps", "0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        VALIDATOR.validate(doc)
        assert doc["x0"] is None
        assert "float range" in doc["x0_reason"]
        assert doc["rho_conditions"]["mu_redescending"] is True

    def test_probes_that_overflow_exit_2(self, tmp_path, capsys):
        # c (k + 1) and c log z overflow: the README's code for a domain error, and no document
        out = tmp_path / "d.json"
        assert main(["diagnose", "--c", "1.7e308", "--k", "0.5", "--eps", "0", "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "float range" in captured.err

    def test_bad_lambda_exits_2(self, tmp_path):
        assert main([
            "diagnose", "--c", "2", "--k", "1", "--eps", "0", "--lambda", "-1",
        ]) == 2


class TestGofCommand:
    def test_matching_params_pass(self, tmp_path):
        data = tmp_path / "d.txt"
        _write_sample(data, n=1000, seed=21)
        out = tmp_path / "g.json"
        assert main([
            "gof", "--input", str(data), "--params", "0,1,5,0.2,0.4",
            "--out", str(out),
        ]) == 0
        doc = json.loads(out.read_text())
        VALIDATOR.validate(doc)
        assert doc["kind"] == "gof_report"
        assert doc["free_params"] == 5
        assert doc["gof"]["ks_pvalue"] > 0.01

    def test_wrong_scale_fails(self, tmp_path):
        data = tmp_path / "d.txt"
        _write_sample(data, n=1000, seed=21)
        out = tmp_path / "g.json"
        assert main([
            "gof", "--input", str(data), "--params", "0,5,5,0.2,0.4",
            "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["gof"]["ks_pvalue"] < 0.01

    def test_overlay_csv(self, tmp_path):
        data = tmp_path / "d.txt"
        xs = _write_sample(data, n=50, seed=13)
        out = tmp_path / "g.json"
        assert main([
            "gof", "--input", str(data), "--params", "0,1,5,0.2,0.4",
            "--out", str(out),
        ]) == 0
        overlay = tmp_path / "g.json.overlay.csv"
        text = overlay.read_text()
        assert "# columns: x,ecdf,model_cdf" in text
        rows = np.array(_csv_rows(text))
        assert rows.shape == (50, 3)
        assert np.array_equal(rows[:, 0], np.sort(xs))
        assert rows[:, 2] == pytest.approx(cdf(TRUTH, rows[:, 0]), rel=1e-15)
        assert np.all(np.diff(rows[:, 1]) > 0.0) or np.all(np.diff(rows[:, 1]) >= 0.0)

    @pytest.mark.parametrize(
        "params, loglik, aic",
        [("0,1,5,1,0.4", "-inf", "inf"), ("0,1,5,0.1,0.4", "inf", "-inf")],
        ids=["ck_above_1", "ck_below_1"],
    )
    def test_observation_at_mu_renders_infinities(self, tmp_path, params, loglik, aic):
        # the density at mu is 0 when c*k > 1 and diverges when c*k < 1
        data = tmp_path / "d.txt"
        xs = sample(TRUTH, 100, seed=1)
        data.write_text("".join(f"{v:.17g}\n" for v in [*xs, 0.0]))
        out = tmp_path / "g.json"
        argv = ["gof", "--input", str(data), "--params", params, "--out", str(out)]
        if loglik == "inf":
            with pytest.warns(DensityLimitWarning):
                assert main(argv) == 0
        else:
            assert main(argv) == 0
        text = out.read_text()
        assert f'"loglik": "{loglik}",' in text and f'"aic": "{aic}",' in text
        VALIDATOR.validate(json.loads(text))

    def test_chains_from_fit_result(self, tmp_path):
        data = tmp_path / "d.txt"
        _write_sample(data, n=500, seed=31)
        fit_out = tmp_path / "fit.json"
        assert main(["fit", "--input", str(data), "--out", str(fit_out)]) == 0
        gof_out = tmp_path / "gof.json"
        assert main([
            "gof", "--input", str(data), "--fit-result", str(fit_out),
            "--out", str(gof_out),
        ]) == 0
        gdoc = json.loads(gof_out.read_text())
        fdoc = json.loads(fit_out.read_text())
        VALIDATOR.validate(gdoc)
        assert gdoc["params"] == fdoc["params"]
        assert gdoc["free_params"] == fdoc["free_params"]
        assert gdoc["gof"]["ks_stat"] == fdoc["gof"]["ks_stat"]

    def test_column_selector(self, tmp_path):
        data = tmp_path / "d.csv"
        xs = sample(TRUTH, 200, seed=17)
        data.write_text(
            "\n".join(f"{i},{format(v, '.17g')}" for i, v in enumerate(xs)) + "\n"
        )
        out = tmp_path / "g.json"
        assert main([
            "gof", "--input", str(data), "--column", "2",
            "--params", "0,1,5,0.2,0.4", "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["gof"]["n"] == 200

    def test_empty_file_exits_2(self, tmp_path, capsys):
        data = tmp_path / "empty.txt"
        data.write_text("# only a comment\n")
        assert main([
            "gof", "--input", str(data), "--params", "0,1,5,0.2,0.4",
        ]) == 2
        assert "no data rows" in capsys.readouterr().err

    def test_bad_fit_result_exits_2(self, tmp_path):
        data = tmp_path / "d.txt"
        _write_sample(data, n=100, seed=1)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main([
            "gof", "--input", str(data), "--fit-result", str(bad),
        ]) == 2


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "esbiii" in capsys.readouterr().out

    def test_bad_param_tuple_exits_2(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        _write_sample(data, n=100, seed=1)
        assert main(["gof", "--input", str(data), "--params", "1,2,3"]) == 2
        assert "five comma-separated" in capsys.readouterr().err

    def test_invalid_domain_exits_2(self, capsys):
        code = main([
            "eval", "--mode", "pdf", "--grid=-1:1:5", "--mu", "0",
            "--sigma=-1", "--c", "2", "--k", "1", "--eps", "0",
        ])
        assert code == 2
        assert "sigma" in capsys.readouterr().err

    def test_successive_calls_match_separate_runs(self, tmp_path, monkeypatch):
        # main reuses one parser; a usage error must leave it as it was
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1500000000")
        data = tmp_path / "d.txt"
        _write_sample(data, n=100, seed=1)
        doc = tmp_path / "fit.json"
        doc.write_text(json.dumps({"params": {"mu": 0, "sigma": 1, "c": 5, "k": 0.2, "eps": 0.4}}))
        runs = [
            ["gof", "--input", str(data), "--params", "0,1,5,0.2,0.4", "--fit-result", str(doc)],
            ["gof", "--input", str(data), "--params", "0,1,5,0.2,0.4", "--out", str(tmp_path / "a.json")],
            ["gof", "--input", str(data), "--fit-result", str(doc), "--out", str(tmp_path / "b.json")],
        ]
        outputs = ["a.json", "a.json.overlay.csv", "b.json", "b.json.overlay.csv"]

        def in_process(argv):
            try:
                return main(argv)
            except SystemExit as exc:
                return exc.code

        codes = [in_process(argv) for argv in runs]
        docs = [(tmp_path / name).read_bytes() for name in outputs]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(esbiii.__file__)))
        alone = [
            subprocess.run(
                [sys.executable, "-m", "esbiii.cli", *argv], env=env, capture_output=True
            ).returncode
            for argv in runs
        ]
        assert codes == alone == [2, 0, 0]
        assert docs == [(tmp_path / name).read_bytes() for name in outputs]

    def test_all_floats_round_trip(self, tmp_path):
        out = tmp_path / "s.csv"
        main([
            "sample", "--mu", "0.1", "--sigma", "1.7", "--c", "5", "--k", "0.2",
            "--eps", "0.4", "--n", "25", "--seed", "123", "--out", str(out),
        ])
        rows = _csv_rows(out.read_text())
        want = sample(Params(0.1, 1.7, 5.0, 0.2, 0.4), 25, seed=123)
        got = np.array(rows).ravel()
        assert np.all(got == want)


class TestGofFreeParams:
    # 10**400: a JSON integer too large for the float the AIC takes
    @pytest.mark.parametrize(
        "value", ["five", 4.7, 0, -1, True, None, pytest.param(10**400, id="1e400")]
    )
    def test_non_positive_integer_exits_2(self, tmp_path, capsys, value):
        data = tmp_path / "d.txt"
        _write_sample(data, n=100, seed=1)
        doc = tmp_path / "fit.json"
        params = {"mu": 0.0, "sigma": 1.0, "c": 5.0, "k": 0.2, "eps": 0.4}
        doc.write_text(json.dumps({"params": params, "free_params": value}))
        out = tmp_path / "gof.json"
        assert main([
            "gof", "--input", str(data), "--fit-result", str(doc), "--out", str(out),
        ]) == 2
        assert "free_params must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_is_used_for_the_aic(self, tmp_path):
        data = tmp_path / "d.txt"
        _write_sample(data, n=100, seed=1)
        doc = tmp_path / "fit.json"
        params = {"mu": 0.0, "sigma": 1.0, "c": 5.0, "k": 0.2, "eps": 0.4}
        doc.write_text(json.dumps({"params": params, "free_params": 4}))
        out = tmp_path / "gof.json"
        assert main([
            "gof", "--input", str(data), "--fit-result", str(doc), "--out", str(out),
        ]) == 0
        gdoc = json.loads(out.read_text())
        assert gdoc["free_params"] == 4
        assert gdoc["gof"]["aic"] == pytest.approx(8.0 - 2.0 * gdoc["gof"]["loglik"])


class TestGofFitResultParams:
    @pytest.mark.parametrize(
        "params, bad",
        [
            ({"mu": False, "sigma": True, "c": 5, "k": 0.2, "eps": 0.4}, "mu"),
            ({"mu": 0.0, "sigma": 1.0, "c": "5", "k": 0.2, "eps": 0.4}, "c"),
            ({"mu": 0.0, "sigma": 1.0, "c": 5.0, "k": 0.2, "eps": None}, "eps"),
        ],
    )
    def test_non_number_exits_2(self, tmp_path, capsys, params, bad):
        data = tmp_path / "d.txt"
        _write_sample(data, n=100, seed=1)
        doc = tmp_path / "fit.json"
        doc.write_text(json.dumps({"params": params, "free_params": 5}))
        out = tmp_path / "gof.json"
        assert main([
            "gof", "--input", str(data), "--fit-result", str(doc), "--out", str(out),
        ]) == 2
        assert f"params.{bad} must be a JSON number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["mu", "sigma", "c", "k", "eps"])
    def test_integer_beyond_the_float_range_exits_2(self, tmp_path, capsys, bad):
        data = tmp_path / "d.txt"
        _write_sample(data, n=100, seed=1)
        doc = tmp_path / "fit.json"
        params = {"mu": 0.0, "sigma": 1.0, "c": 5.0, "k": 0.2, "eps": 0.4, bad: 10**400}
        doc.write_text(json.dumps({"params": params, "free_params": 5}))
        out = tmp_path / "gof.json"
        assert main([
            "gof", "--input", str(data), "--fit-result", str(doc), "--out", str(out),
        ]) == 2
        assert f"esbiii: error: {bad} must " in capsys.readouterr().err
        assert not out.exists()

    def test_integers_are_numbers(self, tmp_path):
        data = tmp_path / "d.txt"
        _write_sample(data, n=100, seed=1)
        doc = tmp_path / "fit.json"
        params = {"mu": 0, "sigma": 1, "c": 5, "k": 0.2, "eps": 0.4}
        doc.write_text(json.dumps({"params": params}))
        out = tmp_path / "gof.json"
        assert main([
            "gof", "--input", str(data), "--fit-result", str(doc), "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["params"] == params
