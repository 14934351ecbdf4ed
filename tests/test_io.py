"""Table parsing, group declarations and artifact round trips."""
import json
import tracemalloc

import numpy as np
import pytest

from bivas import EmOptions, aggregate, make_pi_grid, run_grid, validate_design
from bivas import io as bio
from bivas.exceptions import DimensionMismatch, NaNPresent, NonNumeric
from bivas.simulate import SimConfig, gen_multitask, simulate_dataset


@pytest.fixture
def dataset(tmp_path):
    design, truth = simulate_dataset(SimConfig(n=40, p=12, K=3, pi_true=0.5,
                                               alpha_true=0.6, snr=1.5,
                                               seed=42))
    data_path = tmp_path / "data.csv"
    groups_path = tmp_path / "groups.csv"
    bio.write_design_csv(str(data_path), design)
    bio.write_group_map(str(groups_path), design)
    return design, str(data_path), str(groups_path)


class TestDesignRoundTrip:
    def test_values_survive_exactly(self, dataset):
        design, data_path, groups_path = dataset
        loaded = bio.load_design(data_path, groups_path)
        np.testing.assert_array_equal(loaded.y, design.y)
        np.testing.assert_array_equal(loaded.X, design.X)
        np.testing.assert_array_equal(loaded.Z, design.Z)
        np.testing.assert_array_equal(loaded.group_of, design.group_of)
        assert loaded.predictor_names == design.predictor_names

    def test_inline_group_row(self, dataset):
        design, data_path, _ = dataset
        loaded = bio.load_design(data_path)   # marker row inside the table
        np.testing.assert_array_equal(loaded.group_of, design.group_of)
        np.testing.assert_array_equal(loaded.X, design.X)

    def test_tsv_delimiter(self, tmp_path, dataset):
        design, _, _ = dataset
        path = tmp_path / "data.tsv"
        bio.write_design_csv(str(path), design)
        loaded = bio.load_design(str(path))
        np.testing.assert_array_equal(loaded.X, design.X)

    def test_missing_group_declaration(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("y,x0\n1.0,2.0\n")
        with pytest.raises(DimensionMismatch):
            bio.load_design(str(path))

    def test_unknown_response_column(self, dataset):
        _, data_path, groups_path = dataset
        with pytest.raises(DimensionMismatch):
            bio.load_design(data_path, groups_path, response="nope")

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x0\ngroup,g1\n1.0,oops\n")
        with pytest.raises(NonNumeric):
            bio.load_design(str(path))

    def test_group_map_names_must_exist(self, tmp_path, dataset):
        _, data_path, _ = dataset
        gm = tmp_path / "bad_groups.csv"
        gm.write_text("predictor,group\nghost,1\n")
        with pytest.raises(DimensionMismatch):
            bio.load_design(data_path, str(gm))

    def test_intercept_injected_when_no_covariates(self, tmp_path):
        path = tmp_path / "noz.csv"
        path.write_text("y,x0,x1\n"
                        "group,a,a\n"
                        "1.5,0.25,0.5\n"
                        "2.5,0.125,1.0\n"
                        "0.5,1.0,2.0\n")
        d = bio.load_design(str(path))
        assert d.r == 1
        assert np.all(d.Z == 1.0)
        assert d.covariate_names == ["intercept"]


    @pytest.mark.parametrize("header", ["y,x0,x1,z", "x0,y,z,x1",
                                        "z,x1,x0,y", "y,z,x1,x0"])
    def test_predictor_columns_in_any_order(self, tmp_path, header):
        # a run of adjacent predictor columns is read as a slice of the
        # parsed block, any other set as a copy; both give the same table
        names = header.split(",")
        values = np.arange(1.0, 13.0).reshape(3, 4)
        path, groups = tmp_path / "t.csv", tmp_path / "g.csv"
        path.write_text(header + "\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in values.tolist()))
        groups.write_text("predictor,group\nx0,a\nx1,b\n")
        table = bio.read_design_table(str(path), str(groups))
        col = dict(zip(names, values.T))
        assert table.predictor_names == [nm for nm in names if nm[0] == "x"]
        np.testing.assert_array_equal(
            table.X, np.column_stack([col[nm] for nm in table.predictor_names]))
        np.testing.assert_array_equal(table.Z, col["z"][:, None])
        np.testing.assert_array_equal(table.y, col["y"])

    def test_standardized_load_peaks_near_two_tables(self, tmp_path):
        # the parsed block, then the design's own Fortran copy of X
        # standardized in place: no copy of the predictors sliced out of
        # the block, and no temporary of their size beside both
        rng = np.random.default_rng(7)
        n, p = 1000, 300
        design = validate_design(rng.standard_normal(n), np.ones((n, 1)),
                                 rng.standard_normal((n, p)),
                                 np.arange(p) // 10)
        path, groups = str(tmp_path / "d.csv"), str(tmp_path / "g.csv")
        bio.write_design_csv(path, design)
        bio.write_group_map(groups, design)
        bio.load_design(path, groups, standardize=True)   # kernel built
        tracemalloc.start()
        try:
            loaded = bio.load_design(path, groups, standardize=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * loaded.X.nbytes

    def test_parse_peaks_near_its_block(self, tmp_path, kernel_path):
        # both parsers write each row into one block, grown in place and
        # trimmed: no list of row arrays stacked into a second block.  A
        # tall narrow table, where per-row overhead would show the most
        rng = np.random.default_rng(8)
        n, p = 2000, 100
        design = validate_design(rng.standard_normal(n),
                                 rng.standard_normal((n, 1)),
                                 rng.standard_normal((n, p)),
                                 np.arange(p) // 10)
        path, groups = str(tmp_path / "d.csv"), str(tmp_path / "g.csv")
        bio.write_design_csv(path, design)
        bio.write_group_map(groups, design)
        tracemalloc.start()
        try:
            table = bio.read_design_table(path, groups)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(table.X, design.X)
        assert peak <= 1.3 * n * (p + 2) * 8


class TestParseErrors:
    """Exact messages and row numbers of a table that does not parse.

    Rows are numbered over the non-blank rows: the header is row 1, an
    inline group row counts, and the blank line before the last data row
    is skipped.  With the inline row the bad row is row 4, without it
    row 3 (the sidecar map names the predictors).
    """

    BODIES = {
        "short": "1.0,2.0,3.0,4.0\n\n5.0,6.0,7.0\n",
        "text": "1.0,2.0,3.0,4.0\n\n5.0,6.0,abc,8.0\n",
        "nan": "1.0,2.0,3.0,4.0\n\n5.0,6.0,nan,8.0\n",
        # a non-finite cell is reported only after every row has parsed,
        # so a later short row wins
        "nan-then-short": "1.0,2.0,nan,4.0\n\n5.0,6.0,7.0\n",
    }
    MESSAGES = {
        "short": (DimensionMismatch, "row {r} has 3 cells, expected 4"),
        "text": (NonNumeric, "row {r}: cannot parse 'abc' as a number"),
        "nan": (NaNPresent,
                "row {r}, column 'x0' holds 'nan', not a finite number"),
        "nan-then-short": (DimensionMismatch,
                           "row {r} has 3 cells, expected 4"),
    }

    @staticmethod
    def _write(tmp_path, text, inline):
        """The table (an empty file when ``text`` is None) and, without the
        inline row, the sidecar map."""
        path = tmp_path / "t.csv"
        head = "y,z,x0,x1\n" + ("group,,a,a\n" if inline else "")
        path.write_text(head + text if text is not None else "")
        groups = None
        if not inline:
            groups = tmp_path / "g.csv"
            groups.write_text("predictor,group\nx0,a\nx1,a\n")
            groups = str(groups)
        return str(path), groups

    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "sidecar"])
    @pytest.mark.parametrize("case", list(BODIES))
    def test_bad_row(self, tmp_path, case, inline):
        path, groups = self._write(tmp_path, self.BODIES[case], inline)
        exc, text = self.MESSAGES[case]
        want = f"{path}: " + text.format(r=4 if inline else 3)
        with pytest.raises(exc) as info:
            bio.read_design_table(path, groups)
        assert str(info.value) == want

    def test_short_first_row_before_response_column(self, tmp_path):
        _, groups = self._write(tmp_path, "", False)
        path = tmp_path / "t.csv"
        path.write_text("z,x0,x1,y\n1.0\n")
        with pytest.raises(DimensionMismatch) as info:
            bio.read_design_table(str(path), groups)
        assert str(info.value) == f"{path}: row 2 has 1 cells, expected 4"

    @pytest.mark.parametrize("case", ["short", "repeated"])
    def test_bad_group_map_row(self, tmp_path, case):
        # rows are numbered over the non-blank rows, the header being row 1
        path, _ = self._write(tmp_path, "1.0,2.0,3.0,4.0\n", True)
        groups = tmp_path / "g.csv"
        if case == "short":
            groups.write_text("predictor,group\nx0,a\n\nx1\n")
            want = f"{groups}: row 3 has one cell, expected two (predictor, group)"
        else:
            groups.write_text("predictor,group\nx0,a\nx1,a\n\nx0,b\n")
            want = f"{groups}: row 4 names predictor 'x0' again (first on row 2)"
        with pytest.raises(NonNumeric) as info:
            bio.read_design_table(path, str(groups))
        assert str(info.value) == want

    def test_group_map_names_the_response(self, tmp_path):
        # the row is rejected, not dropped: y is neither a predictor nor
        # left out without a word
        path = tmp_path / "t.csv"
        path.write_text("y,x0,x1\n1.0,2.0,3.0\n2.0,1.0,0.5\n")
        groups = tmp_path / "g.csv"
        groups.write_text("predictor,group\ny,a\nx0,a\nx1,b\n")
        with pytest.raises(NonNumeric) as info:
            bio.read_design_table(str(path), str(groups))
        assert str(info.value) == (f"{groups}: row 2 names the response "
                                   f"column 'y', which cannot be a predictor")

    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "sidecar"])
    def test_column_named_twice(self, tmp_path, inline):
        path, groups = self._write(tmp_path, "1.0,2.0,3.0,4.0\n", inline)
        text = open(path).read().replace("y,z,x0,x1", "y,x0,x0,x1", 1)
        open(path, "w").write(text)
        with pytest.raises(DimensionMismatch) as info:
            bio.read_design_table(path, groups)
        assert str(info.value) == f"{path}: the header names column 'x0' twice"

    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "sidecar"])
    def test_empty_table(self, tmp_path, inline):
        path, groups = self._write(tmp_path, None, inline)
        with pytest.raises(NonNumeric) as info:
            bio.read_design_table(path, groups)
        assert str(info.value) == f"{path}: empty table"

    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "sidecar"])
    def test_header_only_table(self, tmp_path, inline):
        # the file is named, before any design is built from no rows
        path, groups = self._write(tmp_path, "", inline)
        for read in (bio.read_design_table, bio.load_design):
            with pytest.raises(DimensionMismatch) as info:
                read(path, groups)
            assert str(info.value) == f"{path}: no data rows"


class TestMultitaskLoad:
    def test_round_trip(self, tmp_path):
        from bivas import GroupedDesign
        rng = np.random.default_rng(3)
        paths = []
        for t, n in enumerate((15, 12)):
            X = rng.standard_normal((n, 4))
            d = GroupedDesign(rng.standard_normal(n), np.ones((n, 1)), X,
                              np.arange(4),
                              predictor_names=[f"f{k}" for k in range(4)])
            path = tmp_path / f"task{t}.csv"
            bio.write_design_csv(str(path), d)
            paths.append(str(path))
        data = bio.load_multitask(paths)
        assert data.L == 2 and data.K == 4
        assert data.predictor_names == [f"f{k}" for k in range(4)]

    def test_mismatched_features_rejected(self, tmp_path):
        from bivas import GroupedDesign
        rng = np.random.default_rng(3)
        names = (["a", "b"], ["a", "c"])
        paths = []
        for t in range(2):
            X = rng.standard_normal((10, 2))
            d = GroupedDesign(rng.standard_normal(10), np.ones((10, 1)), X,
                              np.arange(2), predictor_names=names[t])
            path = tmp_path / f"task{t}.csv"
            bio.write_design_csv(str(path), d)
            paths.append(str(path))
        with pytest.raises(DimensionMismatch):
            bio.load_multitask(paths)


class TestJsonArtifacts:
    def test_json_round_trip_exact_floats(self, tmp_path):
        payload = {"value": 0.1 + 0.2, "list": [1e-300, 1.7976931348623157e308]}
        path = tmp_path / "check.json"
        bio.write_json(str(path), payload)
        loaded = bio.read_json(str(path))
        assert loaded["value"] == payload["value"]
        assert loaded["list"] == payload["list"]

    def test_metrics_append(self, tmp_path):
        path = tmp_path / "metrics.csv"
        bio.append_metrics_csv(str(path), {"auc": 0.75, "fdr": 0.0})
        bio.append_metrics_csv(str(path), {"auc": 0.5, "fdr": 0.1})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "auc,fdr"
        assert len(lines) == 3


class TestSummaryFromModel:
    """summary_from_model inverts model_to_dict exactly, through JSON."""

    @staticmethod
    def _assert_same(got, want):
        for name in ("pi_tilde", "alpha_tilde", "mu_tilde", "effect",
                     "group_fdr", "var_fdr"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.multitask == want.multitask
        assert np.array_equal(got.group_of, want.group_of)
        assert type(got.params) is type(want.params)
        for name in ("alpha", "pi", "sigma_beta2", "sigma_e2"):
            assert np.array_equal(getattr(got.params, name),
                                  getattr(want.params, name)), name
        assert len(got.params.omega) == len(want.params.omega)
        for a, b in zip(got.params.omega, want.params.omega):
            assert np.array_equal(a, b)

    @staticmethod
    def _round_trip(design, options):
        fit = run_grid(design, make_pi_grid(design.K, 3), EmOptions())
        summary = aggregate(fit)
        model = json.loads(json.dumps(
            bio.model_to_dict(fit, summary, design, options)))
        return bio.summary_from_model(model), summary

    def test_grouped_standardized_fit(self):
        design, _ = simulate_dataset(SimConfig(n=60, p=15, K=5, pi_true=0.5,
                                               alpha_true=0.6, snr=2.0,
                                               seed=31))
        std = validate_design(design.y, design.Z, design.X,
                              design.group_of, standardize=True)
        got, want = self._round_trip(std, {"standardize": True})
        self._assert_same(got, want)

    def test_multitask_fit(self):
        data, _ = gen_multitask(SimConfig(n=[50, 40], p=10, K=10,
                                          pi_true=0.4, alpha_true=0.8,
                                          snr=2.0, seed=32))
        got, want = self._round_trip(data, {"tasks": 2})
        self._assert_same(got, want)

    def test_artifact_key_order(self):
        design, _ = simulate_dataset(SimConfig(n=40, p=8, K=4, seed=33))
        data, _ = gen_multitask(SimConfig(n=[30, 25], p=6, K=6, seed=34))
        params = ["alpha", "pi", "sigma_beta2", "sigma_e2", "omega"]
        posterior = ["pi_tilde", "alpha_tilde", "mu_tilde", "effect"]
        head = ["model", "options", "grid", "params", "predictors",
                "covariates"]
        for d, kind, extra in (
                (design, "group", ["group_labels", "group_of", "standardize"]),
                (data, "multitask", [])):
            fit = run_grid(d, make_pi_grid(d.K, 2), EmOptions())
            model = bio.model_to_dict(fit, aggregate(fit), d, {})
            assert model["model"] == kind
            assert list(model) == head + extra + ["posterior"]
            assert list(model["params"]) == params
            assert list(model["posterior"]) == posterior
            json.dumps(model)    # plain JSON types only
