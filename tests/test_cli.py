"""End-to-end command-line flows: simulate, fit, predict, evaluate, report."""
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from bivas import io as bio
from bivas.cli import main


def run_cli(*args):
    return main(list(args))


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    code = run_cli("simulate", "--n", "250", "--p", "60", "--k-groups", "6",
                   "--pi", "0.5", "--alpha", "0.6", "--snr", "2.0",
                   "--seed", "11", "--out", str(out))
    assert code == 0
    return out


@pytest.fixture(scope="module")
def fit_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fit")
    code = run_cli("fit", "--data", str(sim_dir / "data.csv"),
                   "--groups", str(sim_dir / "groups.csv"),
                   "--grid-size", "6", "--threads", "1",
                   "--out", str(out))
    assert code == 0
    return out


@pytest.fixture(scope="module")
def mt_dirs(tmp_path_factory):
    """A two-task simulation with active features, and its multifit."""
    sim = tmp_path_factory.mktemp("mtsim")
    assert run_cli("simulate", "--n", "60,50", "--k-groups", "8", "--pi", "0.5",
                   "--alpha", "0.8", "--snr", "2.0", "--seed", "3",
                   "--out", str(sim)) == 0
    fit = tmp_path_factory.mktemp("mtfit")
    assert run_cli("multifit", "--task-data", str(sim / "task0.csv"),
                   "--task-data", str(sim / "task1.csv"), "--grid-size", "3",
                   "--threads", "1", "--out", str(fit)) == 0
    return sim, fit


class TestSimulate:
    def test_artifacts_exist(self, sim_dir):
        for name in ("data.csv", "groups.csv", "truth.json"):
            assert (sim_dir / name).exists()

    def test_truth_alignment(self, sim_dir):
        truth = bio.read_json(str(sim_dir / "truth.json"))
        assert len(truth["coef"]) == 60
        assert len(truth["eta"]) == 6


class TestFit:
    def test_artifacts_exist(self, fit_dir):
        for name in ("model.json", "posterior.csv", "groups.csv",
                     "selection.json"):
            assert (fit_dir / name).exists()

    def test_grid_table_and_weights(self, fit_dir):
        model = bio.read_json(str(fit_dir / "model.json"))
        grid = model["grid"]
        assert len(grid) == 6
        weights = [row["weight"] for row in grid]
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
        pis = [row["pi"] for row in grid]
        assert pis == sorted(pis)

    def test_selection_respects_threshold(self, sim_dir, fit_dir):
        selection = bio.read_json(str(fit_dir / "selection.json"))
        assert selection["threshold"] == 0.05
        # strong-signal run: something must be found, all below threshold
        assert len(selection["variables"]) > 0
        assert all(v["fdr"] < 0.05 for v in selection["variables"])
        assert all(g["fdr"] < 0.05 for g in selection["groups"])

    def test_grid_size_one(self, sim_dir, tmp_path):
        out = tmp_path / "fit1"
        code = run_cli("fit", "--data", str(sim_dir / "data.csv"),
                       "--groups", str(sim_dir / "groups.csv"),
                       "--grid-size", "1", "--threads", "1",
                       "--out", str(out))
        assert code == 0
        model = bio.read_json(str(out / "model.json"))
        assert len(model["grid"]) == 1
        assert model["grid"][0]["weight"] == 1.0

    def test_same_seed_byte_identical(self, sim_dir, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"rerun_{tag}"
            code = run_cli("fit", "--data", str(sim_dir / "data.csv"),
                           "--groups", str(sim_dir / "groups.csv"),
                           "--grid-size", "4", "--threads", "2",
                           "--out", str(out))
            assert code == 0
            outs.append(out)
        for name in ("model.json", "posterior.csv", "groups.csv",
                     "selection.json"):
            assert (outs[0] / name).read_bytes() \
                == (outs[1] / name).read_bytes()


class TestPredict:
    def test_training_round_trip(self, sim_dir, fit_dir, tmp_path):
        from bivas import aggregate, make_pi_grid, predict, run_grid
        from bivas.group_fit import EmOptions

        pred_path = tmp_path / "pred.csv"
        code = run_cli("predict", "--model", str(fit_dir / "model.json"),
                       "--data", str(sim_dir / "data.csv"),
                       "--groups", str(sim_dir / "groups.csv"),
                       "--out", str(pred_path))
        assert code == 0
        rows = pred_path.read_text().strip().splitlines()[1:]
        yhat_cli = np.array([float(v) for v in rows])

        design = bio.load_design(str(sim_dir / "data.csv"),
                                 str(sim_dir / "groups.csv"))
        fit = run_grid(design, make_pi_grid(design.K, 6), EmOptions(),
                       threads=1)
        yhat_mem = predict(aggregate(fit), design.Z, design.X)
        assert np.abs(yhat_cli - yhat_mem).max() <= 1e-10


    def test_one_row_table(self, sim_dir, fit_dir, tmp_path):
        # predict reads the table only; it builds no fitting design, which
        # would need more rows than covariates
        from bivas import predict

        lines = (sim_dir / "data.csv").read_text().strip().splitlines()
        one_row = tmp_path / "one.csv"
        one_row.write_text(lines[0] + "\n" + lines[2] + "\n")
        pred_path = tmp_path / "pred_one.csv"
        code = run_cli("predict", "--model", str(fit_dir / "model.json"),
                       "--data", str(one_row),
                       "--groups", str(sim_dir / "groups.csv"),
                       "--out", str(pred_path))
        assert code == 0
        rows = pred_path.read_text().strip().splitlines()[1:]
        yhat_cli = np.array([float(v) for v in rows])

        table = bio.read_design_table(str(one_row), str(sim_dir / "groups.csv"))
        summary = bio.summary_from_model(
            bio.read_json(str(fit_dir / "model.json")))
        yhat_mem = predict(summary, table.Z, table.X)
        assert yhat_cli.shape == (1,)
        np.testing.assert_array_equal(yhat_cli, yhat_mem)

    @staticmethod
    def _rewrite(sim_dir, path, order):
        """The simulated table without its inline group row, its columns
        taken in ``order`` (names)."""
        lines = (sim_dir / "data.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        pick = [header.index(name) for name in order]
        path.write_text("\n".join(
            ",".join(row.split(",")[i] for i in pick)
            for row in [lines[0]] + lines[2:]) + "\n")

    def test_reversed_predictor_columns(self, sim_dir, fit_dir, tmp_path):
        # the table's predictors in the opposite order to the model's
        header = (sim_dir / "data.csv").read_text().split("\n", 1)[0].split(",")
        preds = [name for name in header if name.startswith("x")]
        others = [name for name in header if not name.startswith("x")]
        preds_out = []
        for name, order in (("ordered", header), ("reversed",
                                                  others + preds[::-1])):
            data = tmp_path / f"{name}.csv"
            self._rewrite(sim_dir, data, order)
            out = tmp_path / f"pred_{name}.csv"
            code = run_cli("predict", "--model", str(fit_dir / "model.json"),
                           "--data", str(data),
                           "--groups", str(sim_dir / "groups.csv"),
                           "--out", str(out))
            assert code == 0
            preds_out.append(out.read_bytes())
        assert preds_out[0] == preds_out[1]

    def test_missing_predictor_exits_one(self, sim_dir, fit_dir, tmp_path,
                                         capsys):
        # x0 is in neither the table nor its group map
        header = (sim_dir / "data.csv").read_text().split("\n", 1)[0].split(",")
        data = tmp_path / "no_x0.csv"
        self._rewrite(sim_dir, data, [nm for nm in header if nm != "x0"])
        groups = tmp_path / "groups.csv"
        groups.write_text("".join(
            line + "\n" for line in
            (sim_dir / "groups.csv").read_text().strip().splitlines()
            if not line.startswith("x0,")))
        out = tmp_path / "pred.csv"
        code = run_cli("predict", "--model", str(fit_dir / "model.json"),
                       "--data", str(data), "--groups", str(groups),
                       "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err == (f"error: {data}: no predictor column 'x0', which the "
                       f"model needs\n")
        assert not out.exists()

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_cell_exits_one(self, sim_dir, fit_dir, tmp_path,
                                       capsys, cell):
        lines = (sim_dir / "data.csv").read_text().strip().splitlines()
        cells = lines[3].split(",")
        cells[-1] = cell
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines[:3] + [",".join(cells)]) + "\n")
        code = run_cli("predict", "--model", str(fit_dir / "model.json"),
                       "--data", str(bad),
                       "--groups", str(sim_dir / "groups.csv"),
                       "--out", str(tmp_path / "pred.csv"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "row 4" in err
        assert not (tmp_path / "pred.csv").exists()


class TestPredictWithoutResponse:
    def test_new_data_has_no_response_column(self, sim_dir, fit_dir,
                                             tmp_path):
        # strip the y column to mimic genuinely new data
        lines = (sim_dir / "data.csv").read_text().strip().splitlines()
        header = lines[0].split(",")
        keep = [i for i, name in enumerate(header) if name != "y"]
        new_data = tmp_path / "new.csv"
        new_data.write_text("\n".join(
            ",".join(row.split(",")[i] for i in keep)
            for row in [lines[0]] + lines[2:]) + "\n")   # drop marker row
        pred = tmp_path / "pred_new.csv"
        code = run_cli("predict", "--model", str(fit_dir / "model.json"),
                       "--data", str(new_data),
                       "--groups", str(sim_dir / "groups.csv"),
                       "--out", str(pred))
        assert code == 0
        rows = pred.read_text().strip().splitlines()[1:]
        assert len(rows) == 250


class TestEvaluateAndReport:
    def test_metrics_row(self, sim_dir, fit_dir, tmp_path):
        metrics_path = tmp_path / "metrics.csv"
        code = run_cli("evaluate", "--fit", str(fit_dir),
                       "--truth", str(sim_dir / "truth.json"),
                       "--out", str(metrics_path))
        assert code == 0
        lines = metrics_path.read_text().strip().splitlines()
        header = lines[0].split(",")
        values = dict(zip(header, map(float, lines[1].split(","))))
        for key in ("auc", "group_auc", "fdr", "power", "mse"):
            assert key in values
        assert 0.0 <= values["auc"] <= 1.0
        assert values["mse"] >= 0.0

    def test_report_aggregates(self, sim_dir, fit_dir, tmp_path):
        m1 = tmp_path / "m1.csv"
        m2 = tmp_path / "m2.csv"
        for path in (m1, m2):
            code = run_cli("evaluate", "--fit", str(fit_dir),
                           "--truth", str(sim_dir / "truth.json"),
                           "--out", str(path))
            assert code == 0
        report = tmp_path / "report.csv"
        code = run_cli("report", "--metrics", str(m1), str(m2),
                       "--out", str(report))
        assert code == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "metric,mean,sd,n"
        rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
        assert rows["auc"][3] == "2"
        assert float(rows["auc"][2]) == 0.0   # identical replicates


class TestMultifit:
    def test_end_to_end(self, tmp_path):
        sim_out = tmp_path / "mtsim"
        code = run_cli("simulate", "--n", "120,100", "--k-groups", "30",
                       "--pi", "0.3", "--alpha", "0.8", "--snr", "2.0",
                       "--seed", "5", "--out", str(sim_out))
        assert code == 0
        assert (sim_out / "task0.csv").exists()
        assert (sim_out / "task1.csv").exists()

        fit_out = tmp_path / "mtfit"
        code = run_cli("multifit", "--task-data", str(sim_out / "task0.csv"),
                       "--task-data", str(sim_out / "task1.csv"),
                       "--grid-size", "4", "--threads", "1",
                       "--out", str(fit_out))
        assert code == 0
        model = bio.read_json(str(fit_out / "model.json"))
        assert model["model"] == "multitask"
        assert len(model["params"]["sigma_e2"]) == 2
        assert len(model["params"]["omega"]) == 2
        assert len(model["posterior"]["pi_tilde"]) == 30

        metrics_path = tmp_path / "mtmetrics.csv"
        code = run_cli("evaluate", "--fit", str(fit_out),
                       "--truth", str(sim_out / "truth.json"),
                       "--out", str(metrics_path))
        assert code == 0
        header = metrics_path.read_text().splitlines()[0].split(",")
        assert "mse_task0" in header and "mse_task1" in header

        pred_path = tmp_path / "mtpred.csv"
        code = run_cli("predict", "--model", str(fit_out / "model.json"),
                       "--data", str(sim_out / "task1.csv"),
                       "--task", "1", "--out", str(pred_path))
        assert code == 0
        rows = pred_path.read_text().strip().splitlines()
        assert len(rows) == 101
        yhat_cli = np.array([float(v) for v in rows[1:]])

        from bivas import EmOptions, aggregate, make_pi_grid, predict, run_grid
        data = bio.load_multitask([str(sim_out / "task0.csv"),
                                   str(sim_out / "task1.csv")])
        fit = run_grid(data, make_pi_grid(data.K, 4), EmOptions(), threads=1)
        yhat_mem = predict(aggregate(fit), data.Z[1], data.X[1], task=1)
        assert np.abs(yhat_cli - yhat_mem).max() == 0.0


class TestEvaluateMultifit:
    def test_selecting_nothing_scores_zero(self, mt_dirs, tmp_path):
        # a threshold below every local fdr selects no variable; the empty
        # (0, 2) index array still counts as a selection
        sim, _ = mt_dirs
        fit = tmp_path / "fit"
        assert run_cli("multifit", "--task-data", str(sim / "task0.csv"),
                       "--task-data", str(sim / "task1.csv"),
                       "--grid-size", "3", "--threads", "1", "--fdr", "1e-13",
                       "--out", str(fit)) == 0
        assert json.loads((fit / "selection.json").read_text())["variables"] == []
        assert np.any(np.asarray(
            json.loads((sim / "truth.json").read_text())["coef"]) != 0.0)
        metrics = tmp_path / "metrics.csv"
        assert run_cli("evaluate", "--fit", str(fit), "--truth",
                       str(sim / "truth.json"), "--out", str(metrics)) == 0
        header, row = metrics.read_text().splitlines()[:2]
        got = dict(zip(header.split(","), row.split(",")))
        assert float(got["fdr"]) == 0.0 and float(got["power"]) == 0.0

    def test_no_active_feature_writes_a_row(self, tmp_path):
        # this draw has no active feature, so the fit selects nothing and
        # the truth has no positive: both AUCs are undefined and their
        # cells stay empty, while fdr, power and mse are written
        sim, fit = tmp_path / "sim", tmp_path / "fit"
        assert run_cli("simulate", "--n", "60,50", "--k-groups", "8",
                       "--out", str(sim)) == 0
        assert not np.any(json.loads((sim / "truth.json").read_text())["eta"])
        assert run_cli("multifit", "--task-data", str(sim / "task0.csv"),
                       "--task-data", str(sim / "task1.csv"),
                       "--grid-size", "3", "--threads", "1",
                       "--out", str(fit)) == 0
        metrics = tmp_path / "m.csv"
        assert run_cli("evaluate", "--fit", str(fit), "--truth",
                       str(sim / "truth.json"), "--out", str(metrics)) == 0
        header, row = metrics.read_text().splitlines()
        got = dict(zip(header.split(","), row.split(",")))
        assert got["auc"] == "" and got["group_auc"] == ""
        assert float(got["fdr"]) == 0.0 and float(got["power"]) == 0.0
        assert float(got["mse"]) >= 0.0

    def test_report_counts_only_defined_values(self, mt_dirs, tmp_path):
        # one replicate with both AUCs, one without: report averages each
        # metric over the rows that hold it
        sim, fit = mt_dirs
        defined, undefined = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("evaluate", "--fit", str(fit), "--truth",
                       str(sim / "truth.json"), "--out", str(defined)) == 0
        header, row = defined.read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        cells["auc"] = cells["group_auc"] = ""
        undefined.write_text(header + "\n" + ",".join(cells.values()) + "\n")
        report = tmp_path / "report.csv"
        assert run_cli("report", "--metrics", str(defined), str(undefined),
                       "--out", str(report)) == 0
        rows = {ln.split(",")[0]: ln.split(",")
                for ln in report.read_text().splitlines()[1:]}
        want = dict(zip(header.split(","), row.split(",")))
        assert rows["auc"][1:] == [want["auc"], "0.0", "1"]
        assert rows["group_auc"][3] == "1" and rows["fdr"][3] == "2"

        only = tmp_path / "report-undefined.csv"
        assert run_cli("report", "--metrics", str(undefined),
                       "--out", str(only)) == 0
        assert "auc,,,0" in only.read_text().splitlines()

    def test_one_dimensional_alpha_tilde_exits_one(self, mt_dirs, tmp_path,
                                                   capsys):
        # a multi-task model.json whose alpha_tilde is one value per
        # feature does not load as a grouped model
        sim, fit_dir = mt_dirs
        fit = tmp_path / "fit"
        shutil.copytree(fit_dir, fit)
        path = fit / "model.json"
        model = json.loads(path.read_text())
        post = model["posterior"]
        post["alpha_tilde"] = [row[0] for row in post["alpha_tilde"]]
        path.write_text(json.dumps(model))
        capsys.readouterr()
        out = tmp_path / "out.csv"
        for command in (["predict", "--model", str(path), "--task", "0",
                         "--data", str(sim / "task0.csv")],
                        ["evaluate", "--fit", str(fit),
                         "--truth", str(sim / "truth.json")]):
            assert run_cli(*command, "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: malformed model: ")
            assert "of shape (8, 2)" in err and "got shapes (8,), (8,)" in err
            assert len(err.strip().splitlines()) == 1
            assert not out.exists()

    @pytest.mark.parametrize("task", ["a", 2, -1, 1.0, True])
    def test_bad_task_exits_one(self, mt_dirs, tmp_path, capsys, task):
        sim, fit_dir = mt_dirs
        fit = tmp_path / "fit"
        shutil.copytree(fit_dir, fit)
        path = fit / "selection.json"
        selection = json.loads(path.read_text())
        predictor = json.loads((fit / "model.json").read_text())["predictors"][0]
        selection["variables"].append({"predictor": predictor, "task": task})
        path.write_text(json.dumps(selection))
        capsys.readouterr()
        code = run_cli("evaluate", "--fit", str(fit),
                       "--truth", str(sim / "truth.json"),
                       "--out", str(tmp_path / "metrics.csv"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: task ")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "metrics.csv").exists()


class TestExitCodes:
    def test_missing_required_flag_exits_two(self):
        # argparse reports the missing flag on stderr and exits 2
        proc = subprocess.run(
            [sys.executable, "-m", "bivas.cli", "fit"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "--data" in proc.stderr

    def test_missing_file_exits_two(self, tmp_path):
        code = run_cli("fit", "--data", str(tmp_path / "absent.csv"),
                       "--groups", str(tmp_path / "absent2.csv"),
                       "--out", str(tmp_path))
        assert code == 2

    def test_validation_error_exits_one(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,z1,x0\ngroup,,g\n1.0,1.0,nope\n")
        code = run_cli("fit", "--data", str(bad), "--out", str(tmp_path))
        assert code == 1

    @staticmethod
    def _assert_one_line_error(capsys, flag):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag in err
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_fdr_out_of_range_exits_one_before_fitting(self, sim_dir, tmp_path,
                                                        capsys):
        out = tmp_path / "never"
        code = run_cli("fit", "--data", str(sim_dir / "data.csv"),
                       "--groups", str(sim_dir / "groups.csv"),
                       "--fdr", "2", "--threads", "1", "--out", str(out))
        assert code == 1
        self._assert_one_line_error(capsys, "--fdr")
        assert not out.exists()

    def test_max_iter_zero_exits_one_before_parsing(self, tmp_path, capsys):
        # the data file does not exist: an IO error (exit 2) would mean the
        # table was opened before the flag was checked
        code = run_cli("fit", "--data", str(tmp_path / "absent.csv"),
                       "--max-iter", "0", "--out", str(tmp_path / "o"))
        assert code == 1
        self._assert_one_line_error(capsys, "--max-iter")

    @pytest.mark.parametrize("command, flag, message", [
        ("fit", "--threads", "threads must be >= 1"),
        ("fit", "--grid-size", "grid size must be >= 1"),
        ("multifit", "--threads", "threads must be >= 1"),
        ("multifit", "--grid-size", "grid size must be >= 1")])
    def test_zero_count_exits_one_before_parsing(self, tmp_path, capsys,
                                                 command, flag, message):
        data = "--data" if command == "fit" else "--task-data"
        code = run_cli(command, data, str(tmp_path / "missing.csv"),
                       flag, "0", "--out", str(tmp_path / "o"))
        assert code == 1
        self._assert_one_line_error(capsys, message)
        assert not (tmp_path / "o").exists()

    def test_negative_tol_exits_one_before_parsing(self, tmp_path, capsys):
        code = run_cli("multifit", "--task-data", str(tmp_path / "absent.csv"),
                       "--tol", "-1", "--out", str(tmp_path / "o"))
        assert code == 1
        self._assert_one_line_error(capsys, "--tol")

    def test_standardize_flag(self, sim_dir, tmp_path):
        out = tmp_path / "std"
        code = run_cli("fit", "--data", str(sim_dir / "data.csv"),
                       "--groups", str(sim_dir / "groups.csv"),
                       "--grid-size", "2", "--threads", "1", "--standardize",
                       "--out", str(out))
        assert code == 0
        model = bio.read_json(str(out / "model.json"))
        assert model["standardize"] is not None
        assert len(model["standardize"]["center"]) == 60

    def test_predict_task_outside_model_exits_one(self, sim_dir, fit_dir,
                                                  tmp_path, capsys):
        sim = tmp_path / "mtsim"
        assert run_cli("simulate", "--n", "40,30", "--k-groups", "6",
                       "--pi", "0.5", "--alpha", "0.8", "--snr", "2.0",
                       "--seed", "2", "--out", str(sim)) == 0
        fit = tmp_path / "mtfit"
        assert run_cli("multifit", "--task-data", str(sim / "task0.csv"),
                       "--task-data", str(sim / "task1.csv"),
                       "--grid-size", "2", "--threads", "1",
                       "--out", str(fit)) == 0
        capsys.readouterr()
        code = run_cli("predict", "--model", str(fit / "model.json"),
                       "--data", str(sim / "task1.csv"), "--task", "5",
                       "--out", str(tmp_path / "p.csv"))
        assert code == 1
        self._assert_one_line_error(capsys, "[0, 2)")
        # a grouped model takes no task index
        code = run_cli("predict", "--model", str(fit_dir / "model.json"),
                       "--data", str(sim_dir / "data.csv"),
                       "--groups", str(sim_dir / "groups.csv"),
                       "--task", "0", "--out", str(tmp_path / "g.csv"))
        assert code == 1
        self._assert_one_line_error(capsys, "multi-task")
        assert not (tmp_path / "p.csv").exists()
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("flags, flag", [
        (["--rho", "1"], "--rho"),
        (["--snr", "0"], "--snr"),
        (["--snr", "inf"], "--snr"),
        (["--snr", "nan"], "--snr"),
        (["--n", "abc"], "--n"),
        (["--n", "50,1"], "--n"),
        (["--k-groups", "0"], "--k-groups"),
        (["--p", "10", "--k-groups", "3"], "--p"),
        (["--pi", "1.5"], "--pi"),
        (["--alpha", "-2"], "--alpha"),
    ], ids=["rho", "snr", "snr-inf", "snr-nan", "n-text", "n-one", "k-groups",
            "p-not-multiple", "pi", "alpha"])
    def test_simulate_bad_rho_exits_one_before_writing(self, tmp_path,
                                                       capsys, flags, flag):
        out = tmp_path / "never"
        code = run_cli("simulate", "--n", "50", *flags, "--out", str(out))
        assert code == 1
        self._assert_one_line_error(capsys, flag)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "predict"])
    def test_header_only_table_exits_one_naming_it(self, sim_dir, fit_dir,
                                                   tmp_path, capsys, command):
        data = tmp_path / "data.csv"
        data.write_text((sim_dir / "data.csv").read_text().splitlines()[0]
                        + "\n")
        out = tmp_path / "never"
        flags = {"fit": ["--grid-size", "2", "--threads", "1", "--out",
                         str(out)],
                 "predict": ["--model", str(fit_dir / "model.json"),
                             "--out", str(out)]}[command]
        code = run_cli(command, "--data", str(data),
                       "--groups", str(sim_dir / "groups.csv"), *flags)
        assert code == 1
        self._assert_one_line_error(capsys, f"{data}: no data rows")
        assert not out.exists()

    def test_absent_group_names_listed_five_then_counted(self, sim_dir,
                                                         tmp_path, capsys):
        # the data file given as its own group map: its first column's 251
        # cells below the header (the inline group row's marker and 250
        # responses) name predictors the table does not have
        data = str(sim_dir / "data.csv")
        out = tmp_path / "never"
        code = run_cli("fit", "--data", data, "--groups", data,
                       "--grid-size", "2", "--threads", "1",
                       "--out", str(out))
        assert code == 1
        self._assert_one_line_error(capsys, "and 246 more")
        assert not out.exists()

    @pytest.mark.parametrize("case", ["short-map-row", "map-repeats-name",
                                      "header-repeats-name"])
    def test_bad_columns_exit_one_before_fitting(self, tmp_path, capsys, case):
        # the second x0 column differs from the first: a fit that read it
        # as the first would run and exit 0
        data = tmp_path / "data.csv"
        groups = tmp_path / "groups.csv"
        header = "y,x0,x1" if case != "header-repeats-name" else "y,x0,x0"
        data.write_text(header + "\n" + "".join(
            f"{i % 3}.5,{i}.0,{(7 * i) % 5}.0\n" for i in range(8)))
        rows, where = {"short-map-row": ("x1\n", f"{groups}: row 3"),
                       "map-repeats-name": ("x1,a\nx0,b\n", f"{groups}: row 4"),
                       "header-repeats-name": ("", f"{data}: the header")}[case]
        groups.write_text("predictor,group\nx0,a\n" + rows)
        out = tmp_path / "never"
        code = run_cli("fit", "--data", str(data), "--groups", str(groups),
                       "--grid-size", "2", "--threads", "1",
                       "--out", str(out))
        assert code == 1
        self._assert_one_line_error(capsys, where)
        assert not out.exists()

    def test_group_map_names_response_exits_one_on_fit_and_predict(
            self, fit_dir, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("y,x0,x1\n" + "".join(
            f"{i % 3}.5,{i}.0,{(7 * i) % 5}.0\n" for i in range(8)))
        groups = tmp_path / "groups.csv"
        groups.write_text("predictor,group\ny,a\nx0,a\nx1,b\n")
        where = f"{groups}: row 2 names the response column 'y'"
        out = tmp_path / "never"
        code = run_cli("fit", "--data", str(data), "--groups", str(groups),
                       "--grid-size", "2", "--threads", "1",
                       "--out", str(out))
        assert code == 1
        self._assert_one_line_error(capsys, where)
        assert not out.exists()
        code = run_cli("predict", "--model", str(fit_dir / "model.json"),
                       "--data", str(data), "--groups", str(groups),
                       "--out", str(out))
        assert code == 1
        self._assert_one_line_error(capsys, where)
        assert not out.exists()

    def test_header_repeats_name_exits_one_on_multifit_and_predict(
            self, fit_dir, tmp_path, capsys):
        data = tmp_path / "task.csv"
        data.write_text("y,x0,x0\ngroup,a,b\n1.0,2.0,3.0\n2.0,1.0,0.0\n"
                        "0.5,3.0,1.0\n")
        out = tmp_path / "never"
        code = run_cli("multifit", "--task-data", str(data),
                       "--task-data", str(data), "--grid-size", "2",
                       "--threads", "1", "--out", str(out))
        assert code == 1
        self._assert_one_line_error(capsys, f"{data}: the header names column")
        assert not out.exists()
        pred = tmp_path / "p.csv"
        code = run_cli("predict", "--model", str(fit_dir / "model.json"),
                       "--data", str(data), "--out", str(pred))
        assert code == 1
        self._assert_one_line_error(capsys, f"{data}: the header names column")
        assert not pred.exists()

    @pytest.mark.parametrize("row", ["0.9,", "0.9,abc", "0.9"],
                             ids=["blank", "text", "short"])
    def test_report_bad_cell_exits_one(self, tmp_path, capsys, row):
        metrics = tmp_path / "metrics.csv"
        metrics.write_text(f"auc,fdr\n{row}\n")
        report = tmp_path / "report.csv"
        code = run_cli("report", "--metrics", str(metrics), "--out", str(report))
        assert code == 1
        self._assert_one_line_error(capsys, f"{metrics}: line 2, column 'fdr'")
        assert not report.exists()

    @pytest.mark.parametrize("case", ["bare", "standardize"])
    def test_predict_incomplete_model_exits_one(self, sim_dir, fit_dir,
                                                tmp_path, capsys, case):
        if case == "bare":
            model, missing = {"model": "group"}, "params"
        else:
            model = json.loads((fit_dir / "model.json").read_text())
            model["standardize"] = {"center": [0.0] * len(model["predictors"])}
            missing = "standardize.scale"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code = run_cli("predict", "--model", str(path),
                       "--data", str(sim_dir / "data.csv"),
                       "--groups", str(sim_dir / "groups.csv"),
                       "--out", str(tmp_path / "pred.csv"))
        assert code == 1
        self._assert_one_line_error(capsys, f"{path}: missing key '{missing}'")
        assert not (tmp_path / "pred.csv").exists()

    @pytest.mark.parametrize("case, where", [
        ("short-center", "standardize.center"),
        ("extra-param", "unexpected keyword argument 'extra'"),
        ("text-omega", "could not convert string to float"),
        ("short-group_of", "got shapes (59,), (60,)"),
        ("short-pi_tilde", "(60,) and (5,)"),
        ("group_of-99", "integers in [0, K) reaching K - 1"),
        ("fractional-group_of", "integers in [0, K) reaching K - 1"),
    ], ids=["short-center", "extra-param", "text-omega", "short-group_of",
            "short-pi_tilde", "group_of-99", "fractional-group_of"])
    def test_malformed_model_exits_one(self, sim_dir, tmp_path, capsys, case,
                                       where):
        fit = tmp_path / "fit"
        assert run_cli("fit", "--data", str(sim_dir / "data.csv"),
                       "--groups", str(sim_dir / "groups.csv"),
                       "--grid-size", "2", "--threads", "1", "--standardize",
                       "--out", str(fit)) == 0
        model = json.loads((fit / "model.json").read_text())
        if case == "short-center":
            model["standardize"]["center"].pop()
        elif case == "extra-param":
            model["params"]["extra"] = 1.0
        elif case == "text-omega":
            model["params"]["omega"] = "x"
        elif case == "short-group_of":
            model["group_of"].pop()
        elif case == "short-pi_tilde":
            model["posterior"]["pi_tilde"].pop()
        elif case == "group_of-99":
            model["group_of"] = [99] * len(model["group_of"])
        else:
            model["group_of"][-1] -= 0.5
        path = fit / "model.json"
        path.write_text(json.dumps(model))
        capsys.readouterr()
        out = tmp_path / "out.csv"
        for command in (["predict", "--model", str(path),
                         "--data", str(sim_dir / "data.csv"),
                         "--groups", str(sim_dir / "groups.csv")],
                        ["evaluate", "--fit", str(fit),
                         "--truth", str(sim_dir / "truth.json")]):
            assert run_cli(*command, "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: malformed model: ")
            assert where in err and len(err.strip().splitlines()) == 1
            assert not out.exists()

    @pytest.mark.parametrize("name, missing",
                             [("truth.json", "coef"),
                              ("selection.json", "variables[].predictor")])
    def test_evaluate_incomplete_json_exits_one(self, sim_dir, fit_dir,
                                                tmp_path, capsys, name,
                                                missing):
        fit = tmp_path / "fit"
        shutil.copytree(fit_dir, fit)
        truth = json.loads((sim_dir / "truth.json").read_text())
        selection = json.loads((fit / "selection.json").read_text())
        if name == "truth.json":
            del truth["coef"]
            path = tmp_path / name
        else:
            selection["variables"].append({"fdr": 0.0})
            path = fit / name
        (tmp_path / "truth.json").write_text(json.dumps(truth))
        (fit / "selection.json").write_text(json.dumps(selection))
        code = run_cli("evaluate", "--fit", str(fit),
                       "--truth", str(tmp_path / "truth.json"),
                       "--out", str(tmp_path / "metrics.csv"))
        assert code == 1
        self._assert_one_line_error(capsys, f"{path}: missing key '{missing}'")
        assert not (tmp_path / "metrics.csv").exists()

    def test_evaluate_unknown_predictor_exits_one(self, sim_dir, fit_dir,
                                                  tmp_path, capsys):
        fit = tmp_path / "fit"
        shutil.copytree(fit_dir, fit)
        selection = json.loads((fit / "selection.json").read_text())
        selection["variables"].append({"predictor": "nope", "fdr": 0.0})
        (fit / "selection.json").write_text(json.dumps(selection))
        code = run_cli("evaluate", "--fit", str(fit),
                       "--truth", str(sim_dir / "truth.json"),
                       "--out", str(tmp_path / "metrics.csv"))
        assert code == 1
        self._assert_one_line_error(
            capsys, f"{fit / 'selection.json'}: predictor 'nope'")
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize("case", ["header", "data-row", "group-map",
                                      "model", "metrics"])
    def test_undecodable_file_exits_two_naming_it(self, sim_dir, fit_dir,
                                                  tmp_path, capsys, case):
        # 0xe9 followed by a comma or a digit, and 0xff, are not UTF-8
        data, groups = str(sim_dir / "data.csv"), str(sim_dir / "groups.csv")
        rows = (sim_dir / "data.csv").read_bytes().splitlines(keepends=True)
        bad = tmp_path / ("model.json" if case == "model" else "bad.csv")
        out = tmp_path / "never"
        if case == "header":
            rows[0] = rows[0].replace(b",", b"\xe9,", 1)
        elif case == "data-row":
            # the compiled parse takes the first data row and stops at the
            # second, which the Python parser then decodes
            rows[3] = rows[3].replace(b",", b",\xe9", 1)
        bad.write_bytes({
            "group-map": (sim_dir / "groups.csv").read_bytes() + b"x\xe9,a\n",
            "model": (fit_dir / "model.json").read_bytes().replace(
                b'"model"', b'"mod\xffel"', 1),
            "metrics": b"auc,fdr\n0.9,\xe90.1\n",
        }.get(case, b"".join(rows)))
        argv = {
            "header": ["fit", "--data", str(bad)],
            "data-row": ["fit", "--data", str(bad)],
            "group-map": ["fit", "--data", data, "--groups", str(bad)],
            "model": ["predict", "--model", str(bad), "--data", data,
                      "--groups", groups],
            "metrics": ["report", "--metrics", str(bad)],
        }[case]
        assert run_cli(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        byte = "0xff" if case == "model" else "0xe9"
        assert err.startswith("io error: ")
        assert f"byte {byte} is not utf-8 text: '{bad}'" in err
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("key, value, where", [
        ("coef", "abc", "could not convert string to float: 'abc'"),
        ("coef", "short", "want coef of shape (60,) and eta of shape (6,)"),
        ("eta", "short", "got (60,) and (5,)"),
        ("eta", None, "got (60,) and ()"),
    ], ids=["text-coef", "short-coef", "short-eta", "null-eta"])
    def test_evaluate_malformed_truth_exits_one(self, sim_dir, fit_dir,
                                                tmp_path, capsys, key, value,
                                                where):
        truth = json.loads((sim_dir / "truth.json").read_text())
        truth[key] = truth[key][:-1] if value == "short" else value
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(truth))
        metrics = tmp_path / "metrics.csv"
        code = run_cli("evaluate", "--fit", str(fit_dir), "--truth", str(path),
                       "--out", str(metrics))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: malformed truth: ")
        assert where in err and len(err.strip().splitlines()) == 1
        assert not metrics.exists()
