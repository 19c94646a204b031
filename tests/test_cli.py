import ast
import inspect
import json

import numpy as np
import pytest

from sphertrans import cli
from sphertrans.cli import main
from sphertrans.ensembles import random_tuple
from sphertrans.suites import SUITE_NAMES, sharp_column_pair, sharp_diag_pair
from sphertrans.tupledoc import read_tuple, to_document_dict, write_tuple
from sphertrans.tuples import OperatorTuple


@pytest.fixture
def sharp_file(tmp_path):
    path = tmp_path / "sharp.json"
    write_tuple(path, sharp_column_pair(), name="sharp")
    return path


def _assert_one_error_line(err, *words):
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert all(word in err for word in words)


def _raise_os_error(*args, **kwargs):
    raise OSError("No space left on device")


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

    def test_boolean_dimension_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bool.json"
        bad.write_text('{"d": true, "n": 1, "matrices": [[[[1.0, 0.0]]]]}')
        code = main(["compute", "--input", str(bad), "--transform", "duggal",
                     "--output", str(tmp_path / "x.json")])
        assert code == 2
        assert "'d'" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        code = main(["compute", "--input", str(tmp_path / "none.json"),
                     "--transform", "duggal", "--output", str(tmp_path / "x.json")])
        assert code == 2

    def test_output_that_is_a_directory_exits_2(self, sharp_file, tmp_path, capsys):
        code = main(["compute", "--input", str(sharp_file), "--transform", "duggal",
                     "--output", str(tmp_path)])
        assert code == 2
        _assert_one_error_line(capsys.readouterr().err, str(tmp_path))


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
        path = tmp_path / "z.json"
        write_tuple(path, OperatorTuple(matrices=np.zeros((2, 2, 2))))
        assert main(["norms", "--input", str(path), "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert all(abs(v) <= 1e-12 for v in out.values())

    def test_non_utf8_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe\x00{}")
        assert main(["norms", "--input", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read tuple from {bad}: ")
        assert captured.err.count("\n") == 1

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
        assert "block-matrix" not in text       # the column pair does not commute

    def test_commuting_tuple_prints_the_block_route(self, tmp_path, capsys):
        path = tmp_path / "diag.json"
        write_tuple(path, sharp_diag_pair(), name="diag")
        assert main(["classify", "--input", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:3] for line in lines if "(block-matrix route)" in line] \
            == [["(block-matrix", "route)", "True"]]

    def test_tuple_too_large_to_classify_exits_2(self, tmp_path, capsys):
        # ||T||^2 overflows float64: norms still works, classify cannot
        path = tmp_path / "huge.json"
        write_tuple(path, OperatorTuple(matrices=1e160 * random_tuple(2, 3, 1).array))
        assert main(["norms", "--input", str(path), "--format", "json"]) == 0
        capsys.readouterr()
        assert main(["classify", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ||T|| = ")
        assert "float64" in captured.err
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", [["norms"], ["classify"],
                                     ["compute", "--transform", "duggal"]])
def test_integer_entry_beyond_float_range_exits_2(command, tmp_path, capsys):
    doc = to_document_dict(random_tuple(1, 2, 0))
    doc["matrices"][0][1][0] = [10**400, 0]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    output = ["--output", str(tmp_path / "x.json")] if command[0] == "compute" else []
    assert main([*command, "--input", str(path), *output]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read tuple from {path}: ")
    assert "must be finite" in captured.err
    assert captured.err.count("\n") == 1


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

    def test_equality_at_a_large_nmax_completes(self, capsys):
        # trial 61 at seed 42 draws one diagonal of size 28, where no 64 draws
        # of the invertible normal tuple meet its min_defect
        code = main(["verify", "--suite", "equality", "--nmax", "30", "--trials", "62",
                     "--workers", "1"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("suite equality: trials=62 ")
        assert captured.err == ""

    def test_zero_trials_exits_3(self, capsys):
        code = main(["verify", "--suite", "s3", "--trials", "0", "--workers", "1"])
        assert code == 3
        assert "trials" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, name", [
        ("--dmax", "0", "dmax"), ("--nmax", "1", "nmax"), ("--tol", "nan", "tol"),
        ("--tol", "-1", "tol"), ("--tol", "inf", "tol"), ("--seed", "-1", "seed"),
        ("--workers", "0", "workers"), ("--workers", "-4", "workers"),
    ])
    def test_out_of_range_parameter_exits_3(self, option, value, name, capsys):
        code = main(["verify", "--suite", "s3", "--trials", "2", "--workers", "1",
                     option, value])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name}=")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("option, value", [("--trials", "0"), ("--seed", "-3"),
                                               ("--workers", "0")])
    def test_all_suites_refuse_a_bad_parameter_before_any_suite_runs(self, option, value,
                                                                     tmp_path, capsys):
        code = main(["verify", "--suite", "all", "--report", str(tmp_path / "new" / "r.json"),
                     option, value])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {option[2:]}=")
        assert not (tmp_path / "new").exists()

    def test_all_suites_report_suffix_replaces_only_the_last_json(self, tmp_path, capsys):
        reports = tmp_path / "out.json.d"
        reports.mkdir()
        code = main(["verify", "--suite", "all", "--trials", "1", "--workers", "1",
                     "--report", str(reports / "r.json")])
        assert code == 1        # the sharpness suite fails by design
        written = sorted(path.name for path in reports.iterdir())
        assert written == sorted(f"r.{name}.json" for name in SUITE_NAMES)

    def test_all_suites_write_every_report_and_exit_1(self, tmp_path, capsys):
        reports = tmp_path / "new"       # made by verify
        code = main(["verify", "--suite", "all", "--trials", "2", "--workers", "1",
                     "--report", str(reports / "r.json")])
        assert code == 1        # the sharpness suite fails by design
        headers = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
                   if line.startswith("suite ")]
        assert headers == [f"suite {name}" for name in SUITE_NAMES]
        written = sorted(path.name for path in reports.iterdir())
        assert written == sorted(f"r.{name}.json" for name in SUITE_NAMES)
        for name in SUITE_NAMES:
            doc = json.loads((reports / f"r.{name}.json").read_text())
            assert doc["suite"] == name
            assert all(entry["ok"] for entry in doc["summary"].values()) == \
                (name != "sharpness")

    @pytest.mark.parametrize("suite", ["s3", "all"])
    def test_a_report_directory_that_cannot_be_made_exits_2_before_any_trial(
            self, suite, tmp_path, capsys):
        # a report below a file, then a report that is an existing directory:
        # for --suite all the last suite's, while the first is an old report
        # that the refusal must leave as it was
        def listing():
            return {p.name: p.is_dir() or p.read_text() for p in tmp_path.iterdir()}

        blocker = tmp_path / "file"
        blocker.write_text("")
        if suite == "all":
            (tmp_path / f"r.{SUITE_NAMES[-1]}.json").mkdir()
            (tmp_path / f"r.{SUITE_NAMES[0]}.json").write_text("old\n")
        else:
            (tmp_path / "r.json").mkdir()
        before = listing()
        for report, error in ((blocker / "sub" / "r.json", "cannot create the directory of"),
                              (tmp_path / "r.json", "cannot write report")):
            code = main(["verify", "--suite", suite, "--trials", "2", "--workers", "1",
                         "--report", str(report)])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {error} ")
            assert captured.err.count("\n") == 1
        assert listing() == before

    def test_a_report_write_that_fails_after_the_trials_exits_2(self, tmp_path, capsys,
                                                                 monkeypatch):
        monkeypatch.setattr(cli, "write_report", _raise_os_error)
        code = main(["verify", "--suite", "zero", "--trials", "2", "--workers", "1",
                     "--report", str(tmp_path / "r.json")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("suite zero: trials=2 ")
        _assert_one_error_line(captured.err, "No space left on device")

    def test_zero_suite_exit_0(self, capsys):
        code = main(["verify", "--suite", "zero", "--trials", "10",
                     "--workers", "1"])
        assert code == 0


class TestFuzz:
    def test_fuzz_writes_witness_and_histogram(self, tmp_path, capsys):
        witness = tmp_path / "new" / "w.json"          # its directory is made by fuzz
        code = main(["fuzz", "--inequality-id", "sp.chain.middle", "--trials", "5",
                     "--seed", "3", "--workers", "1", "--witness", str(witness)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["records"] == 5
        assert out["min_slack"] <= out["max_slack"]
        assert sum(out["histogram"]["bin_counts"]) == 5
        doc = read_tuple(witness)
        assert doc.tuple.d == out["witness_fingerprint"]["d"]

    def test_fuzz_prints_the_trials_that_ran(self, capsys):
        # the sharpness suite runs once, whatever --trials asks for
        code = main(["fuzz", "--inequality-id", "sharp.column_pair.hypo", "--trials", "50",
                     "--workers", "1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["suite"], out["trials"]) == ("sharpness", 1)
        assert out["witness_fingerprint"]["trial"] == 0

    def test_fuzz_zero_trials_exits_3(self, capsys):
        code = main(["fuzz", "--inequality-id", "sp.chain.middle", "--trials", "0",
                     "--workers", "1"])
        assert code == 3

    @pytest.mark.parametrize("option, value",
                             [("--dmax", "0"), ("--nmax", "1"), ("--seed", "-1"),
                              ("--workers", "0"), ("--workers", "-4")])
    def test_fuzz_out_of_range_dims_exit_3(self, option, value, tmp_path, capsys):
        code = main(["fuzz", "--inequality-id", "sp.chain.middle", "--trials", "2",
                     "--workers", "1", "--witness", str(tmp_path / "new" / "w.json"),
                     option, value])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {option[2:]}=")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "new").exists()

    def test_fuzz_witness_directory_that_cannot_be_made_exits_2_before_any_trial(
            self, tmp_path, capsys, monkeypatch):
        # a witness below a file, then a witness that is an existing directory;
        # fuzz prints nothing before it writes, so a trial run is caught here
        def no_trial(*args):
            raise AssertionError("fuzz ran its trials")

        monkeypatch.setattr(cli, "fuzz_inequality", no_trial)
        blocker = tmp_path / "file"
        blocker.write_text("")
        (tmp_path / "w.json").mkdir()
        for witness, error in ((blocker / "sub" / "w.json", "cannot create the directory of"),
                               (tmp_path / "w.json", "cannot write witness")):
            code = main(["fuzz", "--inequality-id", "sp.chain.middle", "--trials", "2",
                         "--workers", "1", "--witness", str(witness)])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {error} ")
            assert captured.err.count("\n") == 1

    def test_a_witness_write_that_fails_after_the_trials_exits_2(self, tmp_path, capsys,
                                                                  monkeypatch):
        monkeypatch.setattr(cli, "write_tuple", _raise_os_error)
        code = main(["fuzz", "--inequality-id", "sp.chain.middle", "--trials", "2",
                     "--workers", "1", "--witness", str(tmp_path / "w.json")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        _assert_one_error_line(captured.err, "No space left on device")

    def test_fuzz_unreached_row_exits_3(self, capsys):
        # trial 0 at seed 42 draws p = 2, so the p < 2 row never runs
        code = main(["fuzz", "--inequality-id", "spr.hypo_lower.p_small", "--trials", "1",
                     "--workers", "1"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: trials=1 ")
        assert "spr.hypo_lower.p_small" in captured.err
        assert captured.err.count("\n") == 1

    def test_fuzz_ensemble_of_an_unsampled_suite_exits_3(self, capsys):
        code = main(["fuzz", "--inequality-id", "zero.generic.nonvanishing",
                     "--ensemble", "nilpotent", "--trials", "3", "--workers", "1"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ensemble='nilpotent' applies only to suites ")
        assert captured.err.count("\n") == 1

    def test_fuzz_unknown_id_exits_3(self, capsys):
        code = main(["fuzz", "--inequality-id", "bogus", "--trials", "2"])
        assert code == 3


def test_main_alone_maps_an_error_to_its_exit_code():
    """Outside main, no code of the command line prints to stderr, raises
    SystemExit or reads the exit codes of an error: handlers raise, and
    main prints the one error line and returns its code."""
    tree = ast.parse(inspect.getsource(cli))
    main_def = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
    inside_main = set(ast.walk(main_def))
    sites = []
    for node in ast.walk(tree):
        if node in inside_main:
            continue
        if isinstance(node, ast.keyword) and node.arg == "file" \
                and ast.unparse(node.value) == "sys.stderr":
            sites.append(f"line {node.value.lineno}: file=sys.stderr")
        elif isinstance(node, ast.Raise) and node.exc is not None \
                and "SystemExit" in ast.unparse(node.exc):
            sites.append(f"line {node.lineno}: raise SystemExit")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and node.id in ("EXIT_IO", "EXIT_PARAMS"):
            sites.append(f"line {node.lineno}: {node.id}")
    assert sites == []
