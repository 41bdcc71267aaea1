import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dpselect.evaluation import (
    RiskCoverageCurve,
    acceptance_order,
    accuracy_at_coverage,
    auc,
    bound,
    bound_values,
    build_curve,
    coverage_at_accuracy,
    curve_metrics,
    ideal_score_oracle,
    normalized_score,
    read_curve_csv,
    read_table,
    write_curve_csv,
    write_metrics_json,
    write_table,
)


def curve_cases():
    """Random (scores, correctness) pairs of assorted sizes."""
    scores = hnp.arrays(
        np.float64,
        st.integers(1, 60),
        elements=st.floats(0, 1, allow_nan=False, width=32),
    )
    return scores.flatmap(
        lambda s: st.tuples(
            st.just(s), hnp.arrays(np.bool_, s.shape[0], elements=st.booleans())
        )
    )


class TestBuildCurve:
    def test_worked_example(self):
        # three points: the two confident ones are right, the hesitant one wrong
        scores = np.array([0.1, 0.2, 0.9])
        correct = np.array([True, True, False])
        curve = build_curve(scores, correct)
        np.testing.assert_allclose(curve.coverages, [1 / 3, 2 / 3, 1.0])
        np.testing.assert_allclose(curve.accuracies, [1.0, 1.0, 2 / 3])
        assert curve.a_full == pytest.approx(2 / 3)

    def test_tie_break_by_index(self):
        curve = build_curve(np.array([0.5, 0.5]), np.array([True, False]))
        np.testing.assert_allclose(curve.accuracies, [1.0, 0.5])

    def test_acceptance_order_is_ascending_score_then_index(self):
        assert acceptance_order(np.array([0.5, 0.1, 0.5, 0.1])).tolist() == [1, 3, 0, 2]

    def test_rejects_mismatched_inputs(self):
        with pytest.raises(ValueError):
            build_curve(np.array([0.1]), np.array([True, False]))
        with pytest.raises(ValueError):
            build_curve(np.array([]), np.array([], dtype=bool))

    def test_curve_validation(self):
        with pytest.raises(ValueError, match="grid"):
            RiskCoverageCurve(np.array([0.25, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            RiskCoverageCurve(np.array([0.5, 1.0]), np.array([1.0, 1.5]))
        with pytest.raises(ValueError, match=r"accuracies must lie in \[0, 1\]"):
            RiskCoverageCurve(np.array([0.5, 1.0]), np.array([np.nan, 1.0]))
        with pytest.raises(ValueError, match="coverages and accuracies must be matching"):
            RiskCoverageCurve(np.array([0.5, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="coverages and accuracies must be matching"):
            RiskCoverageCurve(np.array([]), np.array([]))


class TestBound:
    def test_piecewise_form(self):
        assert bound(0.8, 0.5) == 1.0
        assert bound(0.8, 0.8) == 1.0
        assert bound(0.8, 1.0) == pytest.approx(0.8)
        np.testing.assert_allclose(bound(0.5, np.array([0.25, 0.5, 0.75])),
                                   [1.0, 1.0, 2 / 3])

    def test_rejects_out_of_range_coverage(self):
        with pytest.raises(ValueError):
            bound(0.5, 0.0)
        with pytest.raises(ValueError):
            bound(0.5, 1.5)
        with pytest.raises(ValueError, match=r"coverage must be in \(0, 1\]"):
            bound(0.5, np.array([0.5, np.nan]))
        for a_full in (math.nan, -0.5, 1.5):
            with pytest.raises(ValueError, match=r"a_full must be in \[0, 1\]"):
                bound(a_full, 0.9)

    @given(curve_cases())
    @settings(max_examples=200, deadline=None)
    def test_dominates_every_curve(self, case):
        scores, correct = case
        curve = build_curve(scores, correct)
        assert np.all(curve.accuracies <= bound_values(curve) + 1e-12)

    @given(curve_cases())
    @settings(max_examples=200, deadline=None)
    def test_auc_plus_normalized_score_identity(self, case):
        scores, correct = case
        curve = build_curve(scores, correct)
        lhs = auc(curve) + normalized_score(curve)
        assert lhs == pytest.approx(float(np.mean(bound_values(curve))), abs=1e-12)


class TestSummaries:
    def test_auc_of_perfect_separator(self):
        # a(1 - ln a) in the limit; at a = 0.5 that is about 0.8466
        scores, correct = ideal_score_oracle(0.5, 100_000, seed=0)
        curve = build_curve(scores, correct)
        assert auc(curve) == pytest.approx(0.5 * (1 - np.log(0.5)), abs=1e-3)

    def test_oracle_normalized_score_vanishes(self):
        scores, correct = ideal_score_oracle(0.7, 5000, seed=1)
        curve = build_curve(scores, correct)
        assert abs(normalized_score(curve)) <= 1.0 / len(curve)

    def test_null_score_is_flat(self):
        # constant scores accept in index order: accuracy hovers near a_full
        rng = np.random.default_rng(2)
        correct = rng.random(4000) < 0.8
        curve = build_curve(np.zeros(4000), correct)
        assert normalized_score(curve) > 0.01  # clearly worse than ideal
        assert accuracy_at_coverage(curve, 0.5) == pytest.approx(0.8, abs=0.03)

    def test_accuracy_at_coverage_indexing(self):
        curve = build_curve(np.array([0.1, 0.2, 0.9, 1.0]),
                            np.array([True, True, False, False]))
        assert accuracy_at_coverage(curve, 0.5) == 1.0
        assert accuracy_at_coverage(curve, 0.75) == pytest.approx(2 / 3)
        assert accuracy_at_coverage(curve, 1.0) == pytest.approx(0.5)
        # below the first grid point, clamp to the first
        assert accuracy_at_coverage(curve, 0.1) == 1.0
        for coverage in (0.0, 1.5):
            with pytest.raises(ValueError, match=r"coverage must be in \(0, 1\]"):
                accuracy_at_coverage(curve, coverage)

    def test_coverage_at_accuracy(self):
        curve = build_curve(np.array([0.1, 0.2, 0.9, 1.0]),
                            np.array([True, True, False, False]))
        assert coverage_at_accuracy(curve, 0.9) == pytest.approx(0.5)
        assert coverage_at_accuracy(curve, 0.5) == 1.0
        assert coverage_at_accuracy(curve, 1.01) == 0.0

    def test_metrics_dict(self):
        scores, correct = ideal_score_oracle(0.9, 200, seed=3)
        m = curve_metrics(build_curve(scores, correct), accuracy_refs=(0.9, 0.95))
        assert set(m) == {"a_full", "auc", "normalized_score", "coverage_at"}
        assert set(m["coverage_at"]) == {"0.9", "0.95"}
        assert m["a_full"] == pytest.approx(0.9)
        assert m["coverage_at"]["0.95"] >= 0.9  # perfect separator keeps errors last


class TestOracle:
    def test_counts_and_ranges(self):
        scores, correct = ideal_score_oracle(0.34, 50, seed=4)
        assert correct.sum() == 17
        assert np.all(scores[correct] < 0.5)
        assert np.all(scores[~correct] >= 0.5)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ideal_score_oracle(0.0, 10, 0)
        with pytest.raises(ValueError):
            ideal_score_oracle(0.5, 0, 0)


class TestCurveCsv:
    def test_round_trip_exact(self, tmp_path):
        scores, correct = ideal_score_oracle(0.6, 37, seed=5)
        curve = build_curve(scores, correct)
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        loaded = read_curve_csv(path)
        np.testing.assert_array_equal(loaded.coverages, curve.coverages)
        np.testing.assert_array_equal(loaded.accuracies, curve.accuracies)

    def test_gap_column_consistent(self, tmp_path):
        scores, correct = ideal_score_oracle(0.6, 20, seed=6)
        curve = build_curve(scores, correct)
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        np.testing.assert_allclose(table[:, 3], table[:, 2] - table[:, 1], atol=1e-16)

    def test_golden_bytes(self, tmp_path):
        curve = build_curve(np.array([0.3, 0.1, 0.2]), np.array([True, False, True]))
        write_curve_csv(curve, tmp_path / "curves.csv")
        assert (tmp_path / "curves.csv").read_bytes() == (
            b"coverage,accuracy,bound,gap\n"
            b"0.33333333333333331,0,1,1\n"
            b"0.66666666666666663,0.5,1,0.5\n"
            b"1,0.66666666666666663,0.66666666666666663,0\n"
        )


class TestTable:
    def test_formats_floats_exactly_and_other_columns_as_text(self, tmp_path):
        path = tmp_path / "t.csv"
        columns = [np.array([0.1, -0.0]), np.array([3, -4]), ["a", "b"], range(2)]
        write_table(path, "x,n,s,i", columns, newline="\r\n")
        assert path.read_bytes() == b"x,n,s,i\r\n0.10000000000000001,3,a,0\r\n-0,-4,b,1\r\n"
        assert read_table(path, "x,n,s,i") == [["0.10000000000000001", "3", "a", "0"],
                                               ["-0", "-4", "b", "1"]]

    def test_headerless_round_trip(self, tmp_path):
        values = np.random.default_rng(3).standard_normal((4, 3)) * 10.0 ** np.arange(-100, 200, 100)
        write_table(tmp_path / "t.csv", None, values.T)
        loaded = np.array(read_table(tmp_path / "t.csv", None), dtype=np.float64)
        assert loaded.tobytes() == values.tobytes()

    def test_reader_checks_the_header(self, tmp_path):
        write_table(tmp_path / "t.csv", "a,b", [[1], [2]])
        with pytest.raises(ValueError, match="does not start with the header 'coverage,"):
            read_curve_csv(tmp_path / "t.csv")

    @pytest.mark.parametrize("header, text, line, cells, width",
                             [("a,b", "a,b\n1,2\n3", 3, 1, 2), (None, "1,2\n3,4\n5,6,", 3, 3, 2),
                              ("a,b", "a,b\n1,2\n\n", 3, 1, 2)],
                             ids=["cut_short", "headerless_extra_cell", "blank_line"])
    def test_reader_rejects_a_row_of_another_width(self, tmp_path, header, text, line, cells,
                                                   width):
        # A cut-short file used to raise an IndexError in its reader, not a ValueError.
        path = tmp_path / "t.csv"
        path.write_text(text)
        message = f"{path} line {line} holds {cells} cells, not {width}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_table(path, header)


    @pytest.mark.parametrize("header, newline", [("a,b", "\r\n"), (None, "\n")],
                             ids=["scores_like", "log_like"])
    def test_reader_rejects_a_last_cell_cut_short(self, tmp_path, header, newline):
        # A cut inside the last number used to read back as another number.
        path = tmp_path / "t.csv"
        write_table(path, header, [np.array([0.25, 0.1]), np.array([0.5, 0.7])], newline=newline)
        path.write_bytes(path.read_bytes()[: -len(newline) - 3])
        lines = 3 if header else 2
        message = f"{path} line {lines} is cut short: no newline ends it"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_table(path, header)


class TestMetricsJson:
    def test_writes_sorted_json(self, tmp_path):
        write_metrics_json({"b": 1, "a": 0.5}, tmp_path / "metrics.json")
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.json"]
        text = (tmp_path / "metrics.json").read_text()
        assert text == '{\n  "a": 0.5,\n  "b": 1\n}\n'
        assert json.loads(text) == {"a": 0.5, "b": 1}

    def test_failed_replace_leaves_nothing(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        for write in (lambda: write_metrics_json({"a": 1}, tmp_path / "metrics.json"),
                      lambda: write_table(tmp_path / "t.csv", "x", [[0.5, 1.5]])):
            with pytest.raises(OSError, match="disk full"):
                write()
            assert list(tmp_path.iterdir()) == []
