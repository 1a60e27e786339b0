"""Command-line interface: formats, exit codes, and cross-command
consistency."""

import json

import pytest

from subpath_kernel.cli import main
from subpath_kernel.kernel import KernelParams, subpath_kernel
from subpath_kernel.predict import SupportSet, predict_direct, save_model
from subpath_kernel.trees import LabelTable, parse_tree


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestKernelCommand:
    def test_identity_pair_prints_one(self, tmp_path, capsys):
        a = write(tmp_path / "a.trees", "a\n")
        b = write(tmp_path / "b.trees", "a\n")
        assert main(["kernel", "--lambda", "1", a, b]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_zips_lines_pairwise(self, tmp_path, capsys):
        a = write(tmp_path / "a.trees", "a(b)\nc\n")
        b = write(tmp_path / "b.trees", "a(b)\nc\n")
        assert main(["kernel", "--lambda", "0.5", a, b]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert float(out[0]) == pytest.approx(1.25)
        assert float(out[1]) == pytest.approx(0.5)

    def test_mismatched_lengths_exit_2(self, tmp_path, capsys):
        a = write(tmp_path / "a.trees", "a\nb\n")
        b = write(tmp_path / "b.trees", "a\n")
        assert main(["kernel", a, b]) == 2
        assert "error" in capsys.readouterr().err

    def test_oracle_flag_matches_production(self, tmp_path, capsys):
        a = write(tmp_path / "a.trees", "a(b(c),b)\nq(r,r)\n")
        b = write(tmp_path / "b.trees", "a(b,c(b))\nq(r(r))\n")
        assert main(["kernel", "--lambda", "0.5", a, b]) == 0
        fast = capsys.readouterr().out
        assert main(["kernel", "--lambda", "0.5", "--oracle", a, b]) == 0
        assert capsys.readouterr().out == fast

    def test_malformed_tree_reports_line(self, tmp_path, capsys):
        a = write(tmp_path / "a.trees", "a\nb((\n")
        b = write(tmp_path / "b.trees", "a\nb\n")
        assert main(["kernel", a, b]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_bad_lambda_exit_2(self, tmp_path, capsys):
        a = write(tmp_path / "a.trees", "a\n")
        assert main(["kernel", "--lambda", "2", a, a]) == 2


class TestGramCommand:
    def test_lower_triangle_shape(self, tmp_path, capsys):
        f = write(tmp_path / "c.trees", "a\na(b)\na(b,b)\n")
        assert main(["gram", "--lambda", "0.5", f]) == 0
        rows = capsys.readouterr().out.strip().split("\n")
        assert [len(r.split("\t")) for r in rows] == [1, 2, 3]
        table = LabelTable()
        trees = [parse_tree(s, table) for s in ("a", "a(b)", "a(b,b)")]
        want = subpath_kernel(trees[2], trees[1], KernelParams(lam=0.5))
        assert float(rows[2].split("\t")[1]) == pytest.approx(want, rel=1e-15)

    def test_normalized_diagonal_is_one(self, tmp_path, capsys):
        f = write(tmp_path / "c.trees", "a\na(b)\n")
        assert main(["gram", "--lambda", "0.5", "--normalize", f]) == 0
        rows = capsys.readouterr().out.strip().split("\n")
        assert float(rows[0].split("\t")[0]) == pytest.approx(1.0)
        assert float(rows[1].split("\t")[1]) == pytest.approx(1.0)

    def test_parallel_identical_output(self, tmp_path, capsys):
        f = write(tmp_path / "c.trees", "a(b(c),d)\nd(a)\na\nc(c(c))\n")
        assert main(["gram", "--lambda", "0.5", f]) == 0
        serial = capsys.readouterr().out
        assert main(["gram", "--lambda", "0.5", "--jobs", "2", f]) == 0
        assert capsys.readouterr().out == serial

    def test_empty_corpus_exit_2(self, tmp_path, capsys):
        f = write(tmp_path / "c.trees", "# nothing\n")
        assert main(["gram", f]) == 2

    def test_zero_jobs_exit_2(self, tmp_path, capsys):
        f = write(tmp_path / "c.trees", "a(b)\nb\n")
        assert main(["gram", "--jobs", "0", f]) == 2
        assert "jobs" in capsys.readouterr().err


class TestEsaDumpCommand:
    def test_exact_dump(self, tmp_path, capsys):
        f = write(tmp_path / "t.trees", "a(b,b)\n")
        assert main(["esa-dump", f]) == 0
        out = capsys.readouterr().out
        assert out == "0\t0\t0\ta\n1\t1\t2\tb/a\n2\t2\t-1\tb/a\n"

    def test_blocks_blank_line_separated(self, tmp_path, capsys):
        f = write(tmp_path / "t.trees", "a\nb\n")
        assert main(["esa-dump", f]) == 0
        assert capsys.readouterr().out == "0\t0\t-1\ta\n\n0\t0\t-1\tb\n"

    def test_builders_dump_identically(self, tmp_path, capsys):
        f = write(tmp_path / "t.trees", "a(b(a),b,c(a(a)))\n")
        assert main(["esa-dump", "--builder", "linear", f]) == 0
        lin = capsys.readouterr().out
        assert main(["esa-dump", "--builder", "reference", f]) == 0
        assert capsys.readouterr().out == lin


class TestPredictCommand:
    def test_scores_against_direct(self, tmp_path, capsys):
        table = LabelTable()
        sv = SupportSet(trees=[parse_tree("a(b)", table), parse_tree("a", table)],
                        alphas=[1.0, 2.0], bias=0.0, params=KernelParams(lam=1.0))
        model = tmp_path / "model.txt"
        save_model(str(model), sv, table)
        f = write(tmp_path / "in.trees", "a(b)\nb\n")
        assert main(["predict", "--model", str(model), f]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert float(out[0]) == pytest.approx(5.0)
        t2 = parse_tree("b", table)
        assert float(out[1]) == pytest.approx(predict_direct(sv, t2))

    def test_missing_model_exit_2(self, tmp_path, capsys):
        f = write(tmp_path / "in.trees", "a\n")
        assert main(["predict", "--model", str(tmp_path / "nope.txt"), f]) == 2

    def test_empty_model_prints_bias(self, tmp_path, capsys):
        model = write(tmp_path / "model.txt", "lambda 0.5\nbias 0.25\n")
        f = write(tmp_path / "in.trees", "a(b)\nc\n")
        assert main(["predict", "--model", model, f]) == 0
        assert capsys.readouterr().out == "0.25\n0.25\n"

    def test_non_finite_coefficient_exit_2(self, tmp_path, capsys):
        model = write(tmp_path / "model.txt", "lambda 0.5\nbias nan\n1\ta\n")
        f = write(tmp_path / "in.trees", "a\n")
        assert main(["predict", "--model", model, f]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "model line" in captured.err and "finite" in captured.err


class TestGenCommand:
    def test_count_and_determinism(self, tmp_path, capsys):
        assert main(["gen", "--n", "12", "--sigma", "3", "--seed", "5", "--count", "4"]) == 0
        first = capsys.readouterr().out
        assert len(first.strip().split("\n")) == 4
        assert main(["gen", "--n", "12", "--sigma", "3", "--seed", "5", "--count", "4"]) == 0
        assert capsys.readouterr().out == first

    def test_output_reparses_to_size(self, capsys):
        assert main(["gen", "--n", "40", "--sigma", "2", "--seed", "1"]) == 0
        line = capsys.readouterr().out.strip()
        assert parse_tree(line).n == 40


class TestBenchCommands:
    def test_kernel_report_shape(self, capsys):
        assert main(["bench-kernel", "--min-pow", "6", "--max-pow", "8",
                     "--reps", "2", "--seed", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [p["size"] for p in report["series"]["linear"]] == [64, 128, 256]
        assert [p["size"] for p in report["series"]["reference"]] == [64, 128, 256]
        assert "linear" in report["slopes"] and "reference" in report["slopes"]
        assert all(p["seconds"] > 0 for s in report["series"].values() for p in s)

    def test_predict_report_shape(self, capsys):
        assert main(["bench-predict", "--m-min", "5", "--m-max", "15", "--m-step", "5",
                     "--n-min-pow", "6", "--n-max-pow", "7", "--sv-n", "8",
                     "--input-n", "30", "--m-fixed", "5", "--reps", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [p["size"] for p in report["series"]["predict_vs_m"]] == [5, 10, 15]
        assert [p["size"] for p in report["series"]["predict_vs_n"]] == [64, 128]
        assert "predict_flatness_vs_m" in report["ratios"]
        assert "direct_vs_m" in report["slopes"] and "predict_vs_n" in report["slopes"]

    @pytest.mark.parametrize("extra", [
        ["--min-pow", "6", "--max-pow", "5"],
        ["--min-pow", "6", "--max-pow", "6"],
        ["--min-pow", "6", "--max-pow", "7", "--reps", "0"],
    ], ids=["empty", "one-size", "zero-reps"])
    def test_kernel_degenerate_input_exit_2(self, capsys, extra):
        assert main(["bench-kernel", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    @pytest.mark.parametrize("extra", [
        ["--m-min", "15", "--m-max", "5"],
        ["--m-min", "5", "--m-max", "5"],
        ["--n-min-pow", "6", "--n-max-pow", "6"],
        ["--reps", "0"],
    ], ids=["empty-m", "one-m", "one-n", "zero-reps"])
    def test_predict_degenerate_input_exit_2(self, capsys, extra):
        # a repeated option takes its last value, so ``extra`` overrides
        small = ["--m-min", "5", "--m-max", "10", "--m-step", "5", "--n-min-pow", "6",
                 "--n-max-pow", "7", "--sv-n", "8", "--input-n", "30", "--m-fixed", "5",
                 "--reps", "2"]
        assert main(["bench-predict", *small, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    def test_rerun_reports_same_sizes(self, capsys):
        args = ["bench-kernel", "--min-pow", "6", "--max-pow", "7", "--reps", "2"]
        assert main(args) == 0
        a = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        b = json.loads(capsys.readouterr().out)
        assert [p["size"] for p in a["series"]["linear"]] == \
               [p["size"] for p in b["series"]["linear"]]
        assert a["config"] == b["config"]
