import json

import jsonschema
import numpy as np
import pytest

from esbiii import Params, cdf, sample
from esbiii.cli import main, read_values
from esbiii.errors import ParseError

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


class TestDiagnoseCommand:
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
    @pytest.mark.parametrize("value", ["five", 4.7, 0, -1, True, None])
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
