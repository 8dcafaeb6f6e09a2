"""End-to-end command-line behavior: subcommands, exit codes, determinism."""
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tscomplex import Series, arma_simulate, write_series, generate_iid
from tscomplex import cli, experiments
from tscomplex.cli import main
from tscomplex.experiments import EXPERIMENTS
from tscomplex.metrics import METRIC_NAMES

LOGISTIC_SPEC = json.dumps({
    "kind": "logistic_map", "params": {"r": 3.5, "x0": 0.3},
    "length": 1000, "burn_in": 4000, "seed": 0, "label": "period4",
})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_spec_input_csv_stdout(self, capsys):
        code, out, _ = run(capsys, "analyze", "--spec", LOGISTIC_SPEC)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "label,scale,metric,value,statistic,df,p_value,warnings"
        assert any(line.startswith("period4,1,permtest,5800,") for line in lines)

    def test_file_input(self, capsys, tmp_path):
        p = tmp_path / "u.txt"
        write_series(generate_iid("uniform", 400, seed=3), p)
        code, out, _ = run(capsys, "analyze", str(p), "--metric", "permen")
        assert code == 0
        assert out.count("\n") == 2  # header + one row
        assert "u,1,permen," in out

    def test_missing_file_is_total_failure(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path / "nope.txt"))
        assert code == 2

    def test_partial_failure_records_cells_and_exits_zero(self, capsys, tmp_path):
        good = tmp_path / "ok.txt"
        write_series(generate_iid("uniform", 300, seed=1), good)
        code, out, _ = run(capsys, "analyze", str(good), str(tmp_path / "gone.txt"),
                           "--metric", "permen")
        assert code == 0
        assert "error: missing file" in out
        assert "ok,1,permen," in out

    def test_unreadable_file_keeps_its_place(self, capsys, tmp_path):
        for name, seed in (("a", 1), ("c", 2)):
            write_series(generate_iid("uniform", 300, seed=seed), tmp_path / f"{name}.txt")
        code, out, _ = run(capsys, "analyze", str(tmp_path / "a.txt"),
                           str(tmp_path / "b.txt"), str(tmp_path / "c.txt"),
                           "--spec", LOGISTIC_SPEC, "--metric", "permen", "--metric", "runstest")
        assert code == 0
        rows = [line.split(",")[:3] for line in out.strip().splitlines()[1:]]
        assert rows == [[label, "1", metric] for label in ("a", "b", "c", "period4")
                        for metric in ("permen", "runstest")]
        assert out.count("error: missing file") == 2

    def test_no_inputs_is_data_error(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 2
        assert "no inputs" in err

    def test_shared_label_refused_before_any_cell(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "mse_sweeps", lambda *args, **kwargs: pytest.fail("swept"))
        code, out, err = run(capsys, "analyze", "--spec", '{"kind":"uniform","seed":1}',
                             "--spec", '{"kind":"uniform","seed":2}')
        assert code == 2 and not out
        assert err == "tscomplex: data error: duplicate report key: ('uniform', 1, 'sampen')\n"

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["analyze", "--bogus-flag"])
        assert exc_info.value.code == 1

    def test_scales_flag_is_not_accepted(self, capsys):
        # analyze scores at scale 1 only, so --scales would be silently ignored
        with pytest.raises(SystemExit) as exc_info:
            main(["analyze", "--spec", LOGISTIC_SPEC, "--scales", "1,2"])
        assert exc_info.value.code == 1

    def test_rescale_flag_is_not_accepted(self, capsys):
        # the comparison scale belongs to the chart: plot --rescale
        with pytest.raises(SystemExit) as exc_info:
            main(["analyze", "--spec", LOGISTIC_SPEC, "--rescale"])
        assert exc_info.value.code == 1

    def test_per_cell_numerical_error(self, capsys, tmp_path):
        p = tmp_path / "const.txt"
        p.write_text("5.0\n" * 50)
        code, out, _ = run(capsys, "analyze", str(p), "--metric", "sampen")
        assert code == 0
        assert "degenerate tolerance" in out

    @pytest.mark.parametrize("flags", [(), ("--absolute-r", "--r-factor", "1")])
    def test_overflowing_values_fail_only_the_sampen_cell(self, capsys, tmp_path, flags):
        # the SD overflows to inf, and with an absolute tolerance the range
        # 2e308 does: each is a NaN sample-entropy cell that gives its reason
        p = tmp_path / "huge.txt"
        p.write_text("1e308\n-1e308\n" + "".join(f"{v}\n" for v in (0.5, -0.25, 0.75) * 20))
        code, out, err = run(capsys, "analyze", str(p), *flags)
        assert code == 0 and not err
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[2] for row in rows] == list(METRIC_NAMES)
        reason = ("non-finite tolerance (r = inf)" if not flags
                  else "values differ by more than the largest float")
        assert rows[0][3:] == ["nan", "", "", "", f"error: {reason}"]
        assert all(row[3] != "nan" for row in rows[1:])

    def test_metric_selection_does_not_carry_over(self, capsys):
        def metrics_in(out):
            return {line.split(",")[2] for line in out.strip().splitlines()[1:]}
        _, first, _ = run(capsys, "analyze", "--spec", LOGISTIC_SPEC, "--metric", "permen")
        _, second, _ = run(capsys, "analyze", "--spec", LOGISTIC_SPEC, "--metric", "runstest",
                           "--metric", "permtest")
        _, third, _ = run(capsys, "analyze", "--spec", LOGISTIC_SPEC)
        assert metrics_in(first) == {"permen"}
        assert metrics_in(second) == {"runstest", "permtest"}
        assert metrics_in(third) == set(METRIC_NAMES)


class TestParameterErrors:
    @pytest.mark.parametrize("argv", [
        ("analyze", "--m", "0", "--spec", LOGISTIC_SPEC),
        ("analyze", "--r-factor", "-1", "--spec", LOGISTIC_SPEC),
        # a tolerance that is not finite would count every pair, or none
        ("analyze", "--spec", '{"kind":"normal","length":200}', "--r-factor", "nan"),
        ("analyze", "--spec", '{"kind":"normal","length":200}', "--r-factor", "inf"),
        ("mse", "--spec", LOGISTIC_SPEC, "--absolute-r", "--r-factor=-inf"),
        ("analyze", "--t", "9", "--spec", LOGISTIC_SPEC),
        ("mse", "--scales", "1,a", "--spec", LOGISTIC_SPEC),
        # refused before the missing data could be skipped
        ("reproduce", "santafe", "--t", "9", "--data-dir", "{empty_dir}"),
        ("reproduce", "chf_nsr", "--t", "9", "--data-dir", "{empty_dir}"),
        # refused before the missing input is read
        ("mse", "{empty_dir}/missing.txt", "--t", "9"),
        ("compare-groups", "--a", "{empty_dir}/a1.txt", "{empty_dir}/a2.txt",
         "--b", "{empty_dir}/b1.txt", "{empty_dir}/b2.txt", "--m", "0"),
        # a config checks the parameters of metrics it does not select
        ("analyze", "--metric", "permen", "--m", "0", "--spec", LOGISTIC_SPEC),
        ("mse", "--scales", "0", "--spec", LOGISTIC_SPEC),
        ("mse", "--scales", "2,1", "--spec", LOGISTIC_SPEC),
        ("mse", "--scales", "", "--spec", LOGISTIC_SPEC),
        ("reproduce", "table2", "--scales", "0"),
        ("reproduce", "table1", "--replications", "0"),
    ])
    def test_invalid_parameter_is_usage_error(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *(a.replace("{empty_dir}", str(tmp_path)) for a in argv))
        assert code == 1
        assert "Traceback" not in err
        assert err.startswith("tscomplex: usage error: ") and err.count("\n") == 1
        assert not out


class TestMse:
    def test_scale_one_row_matches_analyze(self, capsys):
        code, mse_out, _ = run(capsys, "mse", "--spec", LOGISTIC_SPEC,
                               "--scales", "1,2", "--metric", "permen")
        code2, an_out, _ = run(capsys, "analyze", "--spec", LOGISTIC_SPEC,
                               "--metric", "permen")
        assert code == code2 == 0
        row_mse = next(l for l in mse_out.splitlines() if l.startswith("period4,1,"))
        row_an = next(l for l in an_out.splitlines() if l.startswith("period4,1,"))
        assert row_mse == row_an

    def test_requires_single_input(self, capsys):
        code, _, err = run(capsys, "mse", "--spec", LOGISTIC_SPEC, "--spec", LOGISTIC_SPEC)
        assert code == 2

    def test_fixed_r_flag_changes_deep_scales(self, capsys):
        spec = json.dumps({"kind": "arma", "params": {"ar": [0.9], "ma": []},
                           "length": 1000, "seed": 4, "label": "ar1"})
        _, out_a, _ = run(capsys, "mse", "--spec", spec, "--metric", "sampen",
                          "--scales", "1,4")
        _, out_b, _ = run(capsys, "mse", "--spec", spec, "--metric", "sampen",
                          "--scales", "1,4", "--fixed-r")
        a1, a4 = out_a.strip().splitlines()[1:]
        b1, b4 = out_b.strip().splitlines()[1:]
        assert a1 == b1
        assert a4 != b4

    def test_fixed_r_keeps_an_absolute_tolerance(self, capsys):
        # an absolute tolerance is already fixed across scales; --fixed-r
        # must not multiply it by the series SD
        spec = json.dumps({"kind": "arma", "params": {"ar": [0.9], "ma": []},
                           "length": 1000, "seed": 4, "label": "ar1"})
        argv = ("mse", "--spec", spec, "--metric", "sampen", "--absolute-r",
                "--r-factor", "0.3", "--scales", "1,2")
        code_a, out_a, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv, "--fixed-r")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_fixed_r_on_a_zero_sd_series_keeps_per_input_cells(self, capsys, tmp_path):
        p = tmp_path / "flat.txt"
        p.write_text("5.0\n" * 200)
        code_a, out_a, _ = run(capsys, "mse", str(p))
        code_b, out_b, _ = run(capsys, "mse", str(p), "--fixed-r")
        assert code_a == code_b == 0
        assert out_a == out_b
        assert "flat,1,sampen,nan,,,,error: degenerate tolerance (r = 0)" in out_a

    def test_fixed_r_on_an_overflowing_sd_keeps_per_input_cells(self, capsys, tmp_path):
        # r = 0.2 * inf: nothing to fix; each scale's own SD decides its cell
        p = tmp_path / "huge.txt"
        p.write_text("1e308\n-1e308\n" + "0.5\n-0.25\n0.75\n" * 20)
        code_a, out_a, err_a = run(capsys, "mse", str(p), "--scales", "1,2")
        code_b, out_b, err_b = run(capsys, "mse", str(p), "--scales", "1,2", "--fixed-r")
        assert code_a == code_b == 0 and not err_a and not err_b
        assert out_a == out_b
        assert "huge,1,sampen,nan,,,,error: non-finite tolerance (r = inf)" in out_a


class TestMalformedJson:
    @pytest.mark.parametrize("spec, field", [
        ({"kind": "normal", "length": None}, "length"),
        ({"kind": "normal", "burn_in": []}, "burn_in"),
        ({"kind": "arma", "params": {"ar": 5}}, "ar"),
        ({"kind": "logistic_map", "params": {"x0": None}}, "x0"),
        ({"kind": "noise_overlay", "length": 50,
          "params": {"base": {"kind": "normal", "length": 50}, "sd_multiplier": "a"}},
         "sd_multiplier"),
        ({"kind": "normal", "length": 50, "label": 5}, "label"),
        ({"kind": "logistic_map", "params": {"r": "x"}}, "r"),
        ({"kind": "normal", "length": "abc"}, "length"),
        ({"kind": "normal", "length": 50, "seed": -1}, "seed"),
        ({"kind": "normal", "length": 3.9}, "length"),
        ({"kind": "normal", "length": True}, "length"),
        ({"kind": "normal", "length": "4"}, "length"),
        ({"kind": "normal", "length": 50, "seed": "2"}, "seed"),
        ({"kind": "logistic_map", "params": {"r": "3.7"}}, "r"),
        ({"kind": "exponential", "params": {"rate": 0}}, "rate"),
        ({"kind": "noise_overlay", "length": 5,
          "params": {"base": {"kind": "normal"}, "sd_absolute": 0.1}}, "length"),
        ({"kind": "noise_overlay", "burn_in": 3,
          "params": {"base": {"kind": "normal"}, "sd_absolute": 0.1}}, "burn_in"),
    ])
    def test_spec_field_is_a_data_error(self, capsys, spec, field):
        code, out, err = run(capsys, "analyze", "--spec", json.dumps(spec))
        assert code == 2
        assert err.startswith(f"tscomplex: data error: {field} must ") and err.count("\n") == 1
        assert not out

    @pytest.mark.parametrize("spec, field", [
        ({"kind": "normal", "lenght": 3}, "field 'lenght'"),
        ({"kind": "logistic_map", "params": {"R": 3.7}}, "logistic_map param 'R'"),
        ({"kind": "normal", "params": {"rate": 2}}, "normal param 'rate'"),
        ({"kind": "noise_overlay", "params": {"base": {"kind": "arma", "params": {"x0": 0.3}},
                                              "sd_absolute": 0.1}}, "arma param 'x0'"),
        ({"kind": []}, "generator kind: []"),
        ({"kind": {}}, "generator kind: {}"),
    ])
    def test_unknown_spec_name_is_a_data_error(self, capsys, spec, field):
        code, out, err = run(capsys, "generate", "--spec", json.dumps(spec))
        assert code == 2
        assert err.startswith("tscomplex: data error: unknown ") and err.count("\n") == 1
        assert field in err
        assert not out

    @pytest.mark.parametrize("rows, reason", [
        ([1, 2], "row 0: not an object"),
        ([{"label": "a", "scale": 1, "metric": "permen", "value": 0.5},
          {"label": "a", "metric": "permen", "value": 0.5}], "row 1: missing field 'scale'"),
        ([{"label": "a", "scale": "x", "metric": "permen", "value": 0.5}],
         "row 0: scale must be a finite integer"),
        ([{"label": "a", "scale": 1.5, "metric": "permen", "value": 0.5}],
         "row 0: scale must be a finite integer"),
        ([{"label": "a", "scale": 1, "metric": "permen", "value": "0.5"}],
         "row 0: value must be a finite number"),
        ([{"label": "a", "scale": 1, "metric": "permen", "value": True}],
         "row 0: value must be a finite number"),
        ([{"label": "a", "scale": 1, "metric": "permen", "value": 0.5, "warnings": "x"}],
         "row 0: warnings must be a list of strings"),
    ])
    def test_report_row_is_a_data_error(self, capsys, tmp_path, rows, reason):
        report_path = tmp_path / "r.json"
        report_path.write_text(json.dumps(rows))
        code, _, err = run(capsys, "plot", str(report_path), "--kind", "line_by_scale",
                           "--out", str(tmp_path / "x.svg"))
        assert code == 2
        assert err.startswith(f"tscomplex: data error: {report_path}: {reason}")
        assert err.count("\n") == 1


class TestFileErrors:
    """A file that cannot be read or written is a one-line data error that
    names it."""

    def check(self, capsys, message, *argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"tscomplex: data error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("name, reason", [("missing.json", "No such file or directory"),
                                              ("", "Is a directory")], ids=["missing", "dir"])
    def test_unreadable_report(self, capsys, tmp_path, name, reason):
        path = tmp_path / name
        self.check(capsys, f"cannot read {path}: {reason}",
                   "plot", str(path), "--kind", "line_by_scale", "--out", str(tmp_path / "x.svg"))

    def test_report_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        path.write_bytes(b'[{"label": "\xff"}]')
        self.check(capsys, f"{path}: not UTF-8 text\n",
                   "plot", str(path), "--kind", "line_by_scale", "--out", str(tmp_path / "x.svg"))

    def test_series_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        path.write_bytes(b"1.0\n2\xff\n3.0\n")
        self.check(capsys, f"{path}: not UTF-8 text\n", "mse", str(path))

    def test_series_file_not_utf8_keeps_its_place(self, capsys, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"1.0\n2\xff\n3.0\n")
        write_series(generate_iid("uniform", 300, seed=1), tmp_path / "b.txt")
        code, out, _ = run(capsys, "analyze", str(tmp_path / "a.txt"), str(tmp_path / "b.txt"),
                           "--metric", "permen")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert rows[0] == f"a,1,permen,nan,,,,error: {tmp_path / 'a.txt'}: not UTF-8 text"
        assert rows[1].startswith("b,1,permen,0.")

    @pytest.mark.parametrize("command", ["generate", "analyze", "compare-groups"])
    def test_unwritable_output(self, capsys, tmp_path, command):
        files = [str(tmp_path / f"{name}.txt") for name in "abcd"]
        for seed, path in enumerate(files):
            write_series(generate_iid("uniform", 300, seed=seed), path)
        argv = {"generate": ["generate", "--spec", LOGISTIC_SPEC, "--out"],
                "analyze": ["analyze", *files, "--out"],
                "compare-groups": ["compare-groups", "--a", *files[:2], "--b", *files[2:],
                                   "--metric", "permen", "--plot"]}[command]
        out = tmp_path / "no" / "x.txt"
        self.check(capsys, f"cannot write {out}: No such file or directory\n", *argv, str(out))


class TestGenerate:
    def test_emits_plain_lines(self, capsys, tmp_path):
        out_path = tmp_path / "series.txt"
        code, _, _ = run(capsys, "generate", "--spec", LOGISTIC_SPEC,
                         "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 1000
        float(lines[0])

    def test_spec_from_file(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(LOGISTIC_SPEC)
        code, out, _ = run(capsys, "generate", "--spec", str(spec_path))
        assert code == 0
        assert len(out.strip().splitlines()) == 1000

    def test_numerical_error_exit_code(self, capsys):
        bad = json.dumps({"kind": "logistic_map", "params": {"r": 4.0, "x0": 0.5},
                          "length": 10, "seed": 0})
        code, _, err = run(capsys, "generate", "--spec", bad)
        assert code == 3
        assert "orbit escaped" in err

    def test_unallocatable_length_is_a_data_error(self, capsys):
        # 10^15 float64 samples are 7 PiB: beyond any address space, so the
        # allocation fails at once
        spec = json.dumps({"kind": "uniform", "length": 10**15})
        code, out, err = run(capsys, "generate", "--spec", spec)
        assert code == 2 and not out
        assert err.startswith("tscomplex: data error: ") and err.count("\n") == 1

    def test_generated_file_analyzes_identically(self, capsys, tmp_path):
        out_path = tmp_path / "series.txt"
        run(capsys, "generate", "--spec", LOGISTIC_SPEC, "--out", str(out_path))
        _, from_file, _ = run(capsys, "analyze", str(out_path), "--metric", "permtest")
        _, from_spec, _ = run(capsys, "analyze", "--spec", LOGISTIC_SPEC,
                              "--metric", "permtest")
        strip = lambda s: s.split(",", 1)[1]  # label differs (file stem)
        assert strip(from_file.splitlines()[1]) == strip(from_spec.splitlines()[1])


class TestOut:
    @pytest.mark.parametrize("argv", [
        pytest.param(("generate", "--spec", LOGISTIC_SPEC), id="generate"),
        pytest.param(("analyze", "--spec", LOGISTIC_SPEC), id="analyze-csv"),
        pytest.param(("analyze", "--spec", LOGISTIC_SPEC, "--format", "json"),
                     id="analyze-json"),
        pytest.param(("mse", "--spec", LOGISTIC_SPEC, "--scales", "1,2"), id="mse"),
        pytest.param(("reproduce", "table3_logistic", "--print-table",
                      "--replications", "3"), id="reproduce-table"),
    ])
    def test_out_file_holds_what_stdout_would(self, capsys, tmp_path, argv):
        # with --out the output leaves stdout for the file; reproduce's
        # summary lines stay on stdout either way
        out_path = tmp_path / "out"
        code_file, shown, _ = run(capsys, *argv, "--out", str(out_path))
        code, plain, _ = run(capsys, *argv)
        assert code_file == code == 0
        assert plain.encode("utf-8") == shown.encode("utf-8") + out_path.read_bytes()


class TestReproduceCommand:
    def test_table2_prints_comparisons(self, capsys):
        code, out, _ = run(capsys, "reproduce", "table2")
        assert code == 0
        assert "experiment table2: ok" in out
        assert "logistic r=3.7 | scale 1 | sampen" in out

    def test_santafe_skips_cleanly(self, capsys, tmp_path):
        code, out, _ = run(capsys, "reproduce", "santafe", "--data-dir", str(tmp_path))
        assert code == 0
        assert "skipped" in out

    @staticmethod
    def write_groups(base, chf, nsr):
        for group, members in (("chf", chf), ("nsr", nsr)):
            (base / group).mkdir()
            for series in members:
                write_series(series, base / group / f"{series.label}.txt")

    def test_chf_nsr_runs_on_two_groups(self, capsys, tmp_path):
        self.write_groups(
            tmp_path,
            [arma_simulate([0.9], [], 1000, seed=s, label=f"ar{s}") for s in range(3)],
            [generate_iid("normal", 1000, seed=100 + s, label=f"iid{s}") for s in range(3)])
        out_path = tmp_path / "report.json"
        code, out, err = run(capsys, "reproduce", "chf_nsr", "--data-dir", str(tmp_path),
                             "--format", "json", "--out", str(out_path))
        assert code == 0 and not err
        lines = out.splitlines()
        assert lines[0] == "experiment chf_nsr: ok"
        checks = [line for line in lines if " CHF vs NSR Welch p " in line]
        assert [line.split()[0] for line in checks] == ["sampen", "runstest",
                                                         "permen", "permtest"]
        assert lines[-1].startswith("result: ")
        labels = {row["label"] for row in json.loads(out_path.read_text())}
        assert labels == ({f"CHF:ar{s}" for s in range(3)}
                          | {f"NSR:iid{s}" for s in range(3)})

    @pytest.mark.parametrize("flags", [("--data-dir", "{empty_dir}"), ()],
                             ids=["empty-dir", "no-data-dir"])
    def test_chf_nsr_skips_cleanly(self, capsys, tmp_path, flags):
        code, out, err = run(capsys, "reproduce", "chf_nsr",
                             *(a.replace("{empty_dir}", str(tmp_path)) for a in flags))
        assert code == 0 and not err
        assert out.startswith("experiment chf_nsr: skipped\n")
        assert "result:" not in out

    def test_chf_nsr_constant_series_fails_sampen_check(self, capsys, tmp_path):
        # the flat series has no sample entropy, leaving CHF one sampen score
        self.write_groups(
            tmp_path,
            [Series([5.0] * 1000, "flat"), generate_iid("normal", 1000, seed=1, label="c1")],
            [generate_iid("normal", 1000, seed=100 + s, label=f"n{s}") for s in range(2)])
        code, out, err = run(capsys, "reproduce", "chf_nsr", "--data-dir", str(tmp_path))
        assert code == 0 and not err
        sampen = next(line for line in out.splitlines() if line.startswith("sampen "))
        assert sampen.startswith("sampen CHF vs NSR Welch p < 0.05: FAIL")
        assert "no test: fewer than 2 finite scores in a group" in sampen

    def test_chf_nsr_equal_scores_within_each_group_fail_every_check(self, capsys, tmp_path):
        a, b = generate_iid("uniform", 500, seed=1), generate_iid("normal", 500, seed=2)
        self.write_groups(tmp_path, [Series(a.values, f"c{i}") for i in range(2)],
                          [Series(b.values, f"n{i}") for i in range(2)])
        code, out, err = run(capsys, "reproduce", "chf_nsr", "--data-dir", str(tmp_path))
        assert code == 0 and not err
        checks = [line for line in out.splitlines() if " CHF vs NSR Welch p " in line]
        assert len(checks) == 4
        assert all(": FAIL" in line and "no test: degenerate variance in both groups" in line
                   for line in checks)

    def test_chf_nsr_shared_stem_refused_before_any_cell(self, capsys, tmp_path, monkeypatch):
        self.write_groups(tmp_path, [generate_iid("uniform", 300, seed=s, label=f"chf{s}")
                                     for s in range(2)],
                          [generate_iid("normal", 300, seed=s, label=f"nsr{s}") for s in range(2)])
        write_series(generate_iid("uniform", 300, seed=9), tmp_path / "chf" / "chf0.dat")
        monkeypatch.setattr(experiments, "mse_sweeps",
                            lambda *args, **kwargs: pytest.fail("swept"))
        code, out, err = run(capsys, "reproduce", "chf_nsr", "--data-dir", str(tmp_path))
        assert code == 2 and not out
        assert err == "tscomplex: data error: duplicate report key: ('CHF:chf0', 1, 'sampen')\n"

    def test_readme_synopsis_lists_every_experiment(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        listed = re.search(r"^tscomplex reproduce \{([^}]*)\}", readme, re.M).group(1)
        assert listed.split("|") == list(EXPERIMENTS)

    def test_failed_replication_means_are_failed_cells(self, capsys):
        # m=30 finds no sample-entropy match in any replication
        code, out, _ = run(capsys, "reproduce", "table1", "--m", "30", "--replications", "2",
                           "--scales", "1", "--print-table")
        assert code == 0
        failed = [line for line in out.splitlines() if "no successful replication" in line]
        assert failed == [
            *(f"{dist} | scale 1 | sampen: got nan, reference {ref} (band +/- 0.15) [FAIL]"
              "  # error: no successful replication"
              for dist, ref in (("uniform", 2.23881), ("normal", 2.16856),
                                ("exponential", 1.66978))),
            *(f"{dist},1,sampen,nan,,,,error: no successful replication"
              for dist in ("uniform", "normal", "exponential"))]

    def test_report_written(self, capsys, tmp_path):
        out_path = tmp_path / "t2.json"
        code, _, _ = run(capsys, "reproduce", "table2", "--format", "json",
                         "--out", str(out_path))
        assert code == 0
        rows = json.loads(out_path.read_text())
        assert any(r["label"] == "logistic r=3.5" and r["metric"] == "permtest"
                   and r["value"] == 5800.0 for r in rows)

    @pytest.mark.parametrize("metric", METRIC_NAMES)
    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_single_metric_runs_or_refuses(self, capsys, experiment, metric):
        code, out, err = run(capsys, "reproduce", experiment, "--metric", metric,
                             "--replications", "2")
        assert code in (0, 2)
        assert "Traceback" not in err
        if code == 2:
            assert err.count("\n") == 1 and "leaves out" in err
            assert not out


class TestCompareGroupsCommand:
    def test_identical_groups(self, capsys, tmp_path):
        files = []
        for s in range(2):
            p = tmp_path / f"g{s}.txt"
            write_series(generate_iid("uniform", 300, seed=s), p)
            files.append(str(p))
        code, out, _ = run(capsys, "compare-groups", "--a", *files, "--b", *files,
                           "--metric", "permen")
        assert code == 0
        assert "t = 0.0000" in out and "p = 1" in out

    def test_box_plot_written(self, capsys, tmp_path):
        files_a, files_b = [], []
        for s in range(2):
            pa = tmp_path / f"a{s}.txt"
            pb = tmp_path / f"b{s}.txt"
            write_series(generate_iid("uniform", 300, seed=s), pa)
            write_series(generate_iid("normal", 300, seed=10 + s), pb)
            files_a.append(str(pa))
            files_b.append(str(pb))
        svg = tmp_path / "box.svg"
        code, _, _ = run(capsys, "compare-groups", "--a", *files_a, "--b", *files_b,
                         "--metric", "permen", "--plot", str(svg))
        assert code == 0
        assert svg.read_text().startswith("<?xml")

    def test_equal_scores_within_each_group_print_no_t_test(self, capsys, tmp_path):
        files = []
        for name, seed in (("a0", 1), ("a1", 1), ("b0", 2), ("b1", 2)):
            p = tmp_path / f"{name}.txt"
            write_series(generate_iid("uniform", 300, seed=seed), p)
            files.append(str(p))
        code, out, err = run(capsys, "compare-groups", "--a", *files[:2], "--b", *files[2:])
        assert code == 0 and not err
        assert out == "".join(f"{name}: no t-test (degenerate variance in both groups)\n"
                              for name in METRIC_NAMES)

    def test_non_finite_value_names_the_file(self, capsys, tmp_path):
        files = []
        for name, text in (("ok1", "1.0\n3.0\n2.0\n"), ("bad", "1.0\nnan\n2.0\n"),
                           ("ok2", "2.0\n1.0\n3.0\n"), ("ok3", "3.0\n1.0\n2.0\n")):
            p = tmp_path / f"{name}.txt"
            p.write_text(text)
            files.append(str(p))
        code, _, err = run(capsys, "compare-groups", "--a", *files[:2], "--b", *files[2:],
                           "--metric", "permen")
        assert code == 2
        assert err == f"tscomplex: data error: {files[1]}: non-finite value 'nan' on line 2\n"


class TestPlotCommand:
    def test_line_plot_from_report_json(self, capsys, tmp_path):
        report_path = tmp_path / "r.json"
        run(capsys, "mse", "--spec", LOGISTIC_SPEC, "--metric", "permen",
            "--format", "json", "--out", str(report_path))
        svg_path = tmp_path / "line.svg"
        code, _, _ = run(capsys, "plot", str(report_path), "--kind", "line_by_scale",
                         "--out", str(svg_path))
        assert code == 0
        assert "<polyline" in svg_path.read_text()

    @pytest.mark.parametrize("flat_first", [False, True])
    def test_rescaled_bars_leave_out_failed_cells(self, capsys, tmp_path, flat_first):
        # the flat series fails sampen and runstest; the other two runs-test
        # z values are equal
        for name, spec in (("u", {"kind": "uniform", "length": 500, "seed": 1}),
                           ("n", {"kind": "normal", "length": 500, "seed": 2})):
            run(capsys, "generate", "--spec", json.dumps(spec),
                "--out", str(tmp_path / f"{name}.txt"))
        (tmp_path / "flat.txt").write_text("1.0\n" * 300)
        files = [str(tmp_path / f) for f in ("u.txt", "n.txt", "flat.txt")]
        if flat_first:
            files = files[2:] + files[:2]
        report_path, svg_path = tmp_path / "r.json", tmp_path / "bars.svg"
        run(capsys, "analyze", *files, "--format", "json", "--out", str(report_path))
        code, _, err = run(capsys, "plot", str(report_path), "--kind", "grouped_bars",
                           "--rescale", "--out", str(svg_path))
        assert code == 0, err
        # background + 10 bars (12 cells, 2 failed) + 4 legend swatches
        assert svg_path.read_text().count("<rect") == 15

    @pytest.mark.parametrize("rescale", [False, True])
    def test_grouped_bars_refuse_a_multi_scale_report(self, capsys, tmp_path, rescale):
        report_path, svg_path = tmp_path / "r.json", tmp_path / "bars.svg"
        run(capsys, "mse", "--spec", LOGISTIC_SPEC, "--scales", "1,2,3",
            "--format", "json", "--out", str(report_path))
        flags = ["--rescale"] if rescale else []
        code, _, err = run(capsys, "plot", str(report_path), "--kind", "grouped_bars",
                           *flags, "--out", str(svg_path))
        assert code == 2
        assert err == "tscomplex: data error: grouped_bars needs rows at a single scale\n"
        assert not svg_path.exists()

    @pytest.mark.parametrize("kind", ["line_by_scale", "box_by_group"])
    def test_rescale_is_for_grouped_bars_only(self, capsys, tmp_path, kind):
        report_path = tmp_path / "r.json"
        run(capsys, "mse", "--spec", LOGISTIC_SPEC, "--metric", "permen",
            "--format", "json", "--out", str(report_path))
        code, _, err = run(capsys, "plot", str(report_path), "--kind", kind, "--rescale",
                           "--out", str(tmp_path / "x.svg"))
        assert code == 1
        assert err.startswith("tscomplex: usage error: ") and err.count("\n") == 1
        assert not (tmp_path / "x.svg").exists()


class TestDeterminism:
    def test_byte_identical_outputs(self, capsys, tmp_path):
        paths = []
        for i in range(2):
            csv_p = tmp_path / f"a{i}.csv"
            json_p = tmp_path / f"a{i}.json"
            run(capsys, "analyze", "--spec", LOGISTIC_SPEC, "--out", str(csv_p))
            run(capsys, "analyze", "--spec", LOGISTIC_SPEC, "--format", "json",
                "--out", str(json_p))
            paths.append((csv_p.read_bytes(), json_p.read_bytes()))
        assert paths[0] == paths[1]


# every generated number is bounded by 5000, so no spec asks for a long series
_NUMBERS = st.integers(-5000, 5000) | st.floats(-5000, 5000)
_VALUES = (st.none() | st.booleans() | _NUMBERS | st.text(max_size=4)
           | st.lists(_NUMBERS, max_size=3))
_KINDS = ("uniform", "normal", "exponential", "logistic_map", "arma", "noise_overlay")
_SPEC_FIELDS = ("params", "length", "burn_in", "seed", "label", "lenght")


def _specs(params):
    return st.fixed_dictionaries(
        {"kind": st.sampled_from(_KINDS) | _VALUES},
        optional={name: params if name == "params" else _VALUES for name in _SPEC_FIELDS})


_PARAMS = st.dictionaries(st.sampled_from(("r", "x0", "rate", "ar", "ma", "sd_multiplier",
                                           "sd_absolute")), _VALUES, max_size=3)
_NESTED_PARAMS = st.builds(lambda p, base: {**p, "base": base}, _PARAMS,
                           _specs(_PARAMS) | _VALUES)
_REPORT_ROW = st.fixed_dictionaries({}, optional={
    "label": st.sampled_from(("a", "b", "g:1", "g:2")) | _VALUES,
    "scale": st.integers(1, 4) | _VALUES,
    "metric": st.sampled_from(METRIC_NAMES) | _VALUES,
    "value": _VALUES, "statistic": _VALUES, "df": _VALUES, "p_value": _VALUES,
    "warnings": st.lists(st.text(max_size=3), max_size=2) | _VALUES,
})
_SERIES_LINES = st.lists(st.sampled_from(("", " ", "1.5", "2", "nan", "inf", "\u22121.25",
                                          "\u2212", "abc", "1e400", "-0", "1e308", "-1e308",
                                          "1e200")), max_size=6)


class TestErrorContract:
    """Whatever JSON or series text comes in, the CLI exits 0-3 with at most
    one line on stderr and no traceback."""

    fuzz = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

    def check(self, capsys, *argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refusing the command line
            capsys.readouterr()
            assert exc.code == 1
            return
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3)
        assert err.count("\n") <= 1, err

    @fuzz
    @given(spec=_specs(_PARAMS | _NESTED_PARAMS | _VALUES) | _VALUES)
    def test_generate_spec(self, capsys, tmp_path, spec):
        self.check(capsys, "generate", f"--spec={json.dumps(spec)}",
                   "--out", str(tmp_path / "s.txt"))

    @fuzz
    @given(rows=st.lists(_REPORT_ROW | _VALUES, max_size=4) | _VALUES,
           kind=st.sampled_from(("line_by_scale", "grouped_bars", "box_by_group")),
           rescale=st.booleans())
    def test_plot_report(self, capsys, tmp_path, rows, kind, rescale):
        report_path = tmp_path / "r.json"
        report_path.write_text(json.dumps(rows))
        self.check(capsys, "plot", str(report_path), "--kind", kind,
                   *(["--rescale"] if rescale else []), "--out", str(tmp_path / "x.svg"))

    @fuzz
    @given(lines=_SERIES_LINES, newline=st.sampled_from(("\n", "\r\n")),
           command=st.sampled_from(("analyze", "mse")))
    def test_series_file(self, capsys, tmp_path, lines, newline, command):
        path = tmp_path / "s.txt"
        path.write_bytes(newline.join(lines).encode("utf-8"))
        self.check(capsys, command, str(path), *(["--scales", "1,2"] if command == "mse" else []))

    @fuzz
    @given(command=st.sampled_from(("analyze", "mse")),
           values=st.lists(st.integers(-3, 3), min_size=1, max_size=40),
           metrics=st.lists(st.sampled_from(METRIC_NAMES), max_size=4, unique=True),
           absolute_r=st.booleans(), fixed_r=st.booleans(), partial=st.booleans(),
           scales=st.none() | st.lists(st.integers(-1, 50), max_size=4),
           r_factor=st.none() | st.sampled_from((-1.0, 0.0, 1e-9, 0.2, 1.0, 5.0, math.nan,
                                                 math.inf)),
           bounds=st.dictionaries(st.sampled_from(("--m", "--n", "--t")), st.integers(0, 9),
                                  max_size=3))
    def test_flag_combinations(self, capsys, tmp_path, command, values, metrics, absolute_r,
                               fixed_r, partial, scales, r_factor, bounds):
        # short, tie-heavy inputs: too short for some scales and embedding
        # lengths, constant for some draws
        path = tmp_path / "s.txt"
        path.write_text("".join(f"{v}\n" for v in values))
        argv = [command, str(path), *(f"--metric={name}" for name in metrics),
                *(["--absolute-r"] if absolute_r else []),
                *([f"--r-factor={r_factor}"] if r_factor is not None else []),
                *(f"{flag}={value}" for flag, value in bounds.items())]
        if command == "mse":
            argv += [*(["--fixed-r"] if fixed_r else []),
                     *(["--partial-blocks"] if partial else []),
                     *([f"--scales={','.join(map(str, scales))}"] if scales is not None else [])]
        self.check(capsys, *argv)

    @fuzz
    @given(groups=st.lists(st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=30),
                                    min_size=2, max_size=4), min_size=2, max_size=2),
           metrics=st.lists(st.sampled_from(METRIC_NAMES), max_size=4, unique=True),
           # compare-groups refuses --scales and an unknown --runs-variant,
           # so both are drawn rarely
           scales=st.sampled_from((None,) * 7 + ("1", "0", "1,2,3")),
           bounds=st.dictionaries(st.sampled_from(("--m", "--n", "--t")), st.integers(0, 9),
                                  max_size=3),
           runs_variant=st.sampled_from((None, "above_below_median", "up_down") * 3
                                        + ("median",)),
           outputs=st.booleans())
    def test_compare_groups_flag_combinations(self, capsys, tmp_path, groups, metrics, scales,
                                              bounds, runs_variant, outputs):
        # short, tie-heavy groups: too short for some metrics, constant or
        # repeated across files for some draws; compare-groups takes no --scales
        argv = ["compare-groups"]
        for flag, files in zip(("--a", "--b"), groups):
            argv.append(flag)
            for i, values in enumerate(files):
                path = tmp_path / f"{flag[2:]}{i}.txt"
                path.write_text("".join(f"{v}\n" for v in values))
                argv.append(str(path))
        argv += [*(f"--metric={name}" for name in metrics),
                 *(f"{flag}={value}" for flag, value in bounds.items()),
                 *([f"--runs-variant={runs_variant}"] if runs_variant is not None else []),
                 *([f"--scales={scales}"] if scales is not None else [])]
        if outputs:
            argv += ["--format=json", f"--out={tmp_path / 'r.json'}",
                     f"--plot={tmp_path / 'box.svg'}"]
        self.check(capsys, *argv)

    @fuzz
    @given(experiment=st.sampled_from(tuple(EXPERIMENTS)),
           metrics=st.lists(st.sampled_from(METRIC_NAMES), max_size=4, unique=True),
           # the generated series have 1000 points, so scales past that are refused
           scales=st.none() | st.lists(st.sampled_from((-1, 0, 1, 2, 5, 999, 1000, 1001, 5000)),
                                       min_size=1, max_size=3, unique=True).map(sorted),
           replications=st.sampled_from((0, -1) + (1, 2) * 2),
           seed=st.none() | st.integers(-1, 2**64),
           data_dir=st.sampled_from((None, "missing", "empty", "file")),
           bounds=st.dictionaries(st.sampled_from(("--m", "--n", "--t")), st.integers(0, 9),
                                  max_size=3))
    def test_reproduce_flag_combinations(self, capsys, tmp_path, experiment, metrics, scales,
                                         replications, seed, data_dir, bounds):
        # never the default 30 replications, so each example stays short, and
        # a valid count twice as often as a refused one; the data file is a
        # short tie-heavy series, which santafe reads
        (tmp_path / "empty").mkdir(exist_ok=True)
        (tmp_path / "file").write_text("".join(f"{v % 7 - 3}\n" for v in range(50)))
        argv = ["reproduce", experiment, f"--replications={replications}",
                *(f"--metric={name}" for name in metrics),
                *([f"--scales={','.join(map(str, scales))}"] if scales is not None else []),
                *([f"--seed={seed}"] if seed is not None else []),
                *([f"--data-dir={tmp_path / data_dir}"] if data_dir is not None else []),
                *(f"{flag}={value}" for flag, value in bounds.items())]
        self.check(capsys, *argv)
