import json

import numpy as np
import pytest

from sphertrans.cli import main
from sphertrans.suites import SUITE_NAMES, sharp_column_pair
from sphertrans.tupledoc import read_tuple, write_tuple


@pytest.fixture
def sharp_file(tmp_path):
    path = tmp_path / "sharp.json"
    write_tuple(path, sharp_column_pair(), name="sharp")
    return path


class TestCompute:
    def test_aluthge_of_column_pair(self, sharp_file, tmp_path):
        out = tmp_path / "out.json"
        code = main(["compute", "--input", str(sharp_file),
                     "--transform", "aluthge", "--output", str(out)])
        assert code == 0
        doc = read_tuple(out)
        assert np.allclose(doc.tuple[0], np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(doc.tuple[1], 0.0, atol=1e-12)

    def test_gen_aluthge_t0_echoes_input(self, sharp_file, tmp_path):
        out = tmp_path / "out.json"
        code = main(["compute", "--input", str(sharp_file), "--transform",
                     "gen-aluthge", "--t", "0", "--output", str(out)])
        assert code == 0
        doc = read_tuple(out)
        for a, b in zip(doc.tuple, read_tuple(sharp_file).tuple):
            assert np.allclose(a, b, atol=1e-9)

    def test_heinz_symmetry_in_t(self, sharp_file, tmp_path):
        out3, out7 = tmp_path / "o3.json", tmp_path / "o7.json"
        main(["compute", "--input", str(sharp_file), "--transform", "heinz",
              "--t", "0.3", "--output", str(out3)])
        main(["compute", "--input", str(sharp_file), "--transform", "heinz",
              "--t", "0.7", "--output", str(out7)])
        a, b = read_tuple(out3).tuple, read_tuple(out7).tuple
        for x, y in zip(a, b):
            assert np.allclose(x, y, atol=1e-12)

    def test_missing_parameter_exits_3(self, sharp_file, tmp_path):
        code = main(["compute", "--input", str(sharp_file), "--transform",
                     "heinz", "--output", str(tmp_path / "x.json")])
        assert code == 3

    def test_invalid_parameter_exits_3(self, sharp_file, tmp_path):
        code = main(["compute", "--input", str(sharp_file), "--transform",
                     "gen-aluthge", "--t", "1.5",
                     "--output", str(tmp_path / "x.json")])
        assert code == 3

    def test_malformed_input_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"d": 1, "n": 1}')
        code = main(["compute", "--input", str(bad), "--transform", "duggal",
                     "--output", str(tmp_path / "x.json")])
        assert code == 2

    def test_missing_file_exits_2(self, tmp_path):
        code = main(["compute", "--input", str(tmp_path / "none.json"),
                     "--transform", "duggal", "--output", str(tmp_path / "x.json")])
        assert code == 2


class TestNorms:
    def test_json_values_for_column_pair(self, sharp_file, capsys):
        code = main(["norms", "--input", str(sharp_file), "--p", "2",
                     "--format", "json"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["spherical_norm"] == pytest.approx(np.sqrt(2.0), abs=1e-10)
        assert out["schatten_spherical_norm[p=2]"] == pytest.approx(
            np.sqrt(2.0), abs=1e-10
        )
        assert out["schatten_hypo_norm[p=2]"] == pytest.approx(1.0, abs=1e-8)

    def test_table_format(self, sharp_file, capsys):
        assert main(["norms", "--input", str(sharp_file)]) == 0
        text = capsys.readouterr().out
        assert "spherical_norm" in text
        assert "d=2, n=2" in text

    def test_csv_format(self, sharp_file, capsys):
        assert main(["norms", "--input", str(sharp_file), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "quantity,value"

    def test_zero_tuple_all_zero(self, tmp_path, capsys):
        from sphertrans.tuples import zero_tuple
        path = tmp_path / "z.json"
        write_tuple(path, zero_tuple(2, 2))
        assert main(["norms", "--input", str(path), "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert all(abs(v) <= 1e-12 for v in out.values())

    def test_invalid_p_exits_3(self, sharp_file):
        for p in ("0.5", "nan"):
            assert main(["norms", "--input", str(sharp_file), "--p", p]) == 3


class TestClassify:
    def test_prints_predicates(self, sharp_file, capsys):
        assert main(["classify", "--input", str(sharp_file)]) == 0
        text = capsys.readouterr().out
        assert "commuting" in text
        assert "necessary condition only" in text
        assert "coordinate 1" in text


class TestVerify:
    def test_small_suite_passes_and_writes_report(self, tmp_path, capsys):
        report = tmp_path / "rep.json"
        code = main(["verify", "--suite", "s3", "--trials", "5", "--seed", "1",
                     "--workers", "1", "--report", str(report)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["suite"] == "s3"
        assert doc["trials"] == 5
        assert "ok " in capsys.readouterr().out

    def test_sharpness_suite_exits_1(self, capsys):
        # the diagonal-pair hypo equality genuinely fails below p = 2
        code = main(["verify", "--suite", "sharpness", "--workers", "1"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_zero_trials_exits_3(self, capsys):
        code = main(["verify", "--suite", "s3", "--trials", "0", "--workers", "1"])
        assert code == 3
        assert "trials" in capsys.readouterr().err

    def test_all_suites_report_suffix_replaces_only_the_last_json(self, tmp_path, capsys):
        reports = tmp_path / "out.json.d"
        reports.mkdir()
        code = main(["verify", "--suite", "all", "--trials", "1", "--workers", "1",
                     "--report", str(reports / "r.json")])
        assert code == 1        # the sharpness suite fails by design
        written = sorted(path.name for path in reports.iterdir())
        assert written == sorted(f"r.{name}.json" for name in SUITE_NAMES)

    def test_zero_suite_exit_0(self, capsys):
        code = main(["verify", "--suite", "zero", "--trials", "10",
                     "--workers", "1"])
        assert code == 0


class TestFuzz:
    def test_fuzz_writes_witness_and_histogram(self, tmp_path, capsys):
        witness = tmp_path / "w.json"
        code = main(["fuzz", "--inequality-id", "sp.chain.middle", "--trials", "5",
                     "--seed", "3", "--workers", "1", "--witness", str(witness)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["records"] == 5
        assert out["min_slack"] <= out["max_slack"]
        assert sum(out["histogram"]["bin_counts"]) == 5
        doc = read_tuple(witness)
        assert doc.tuple.d == out["witness_fingerprint"]["d"]

    def test_fuzz_zero_trials_exits_3(self, capsys):
        code = main(["fuzz", "--inequality-id", "sp.chain.middle", "--trials", "0",
                     "--workers", "1"])
        assert code == 3

    def test_fuzz_unknown_id_exits_3(self, capsys):
        code = main(["fuzz", "--inequality-id", "bogus", "--trials", "2"])
        assert code == 3
