"""What a run writes: report JSON with its curve CSV, and the certificate
report of the purity check.

Curve cells print floats with %.17g, which round-trips IEEE doubles
exactly, so the equality checks below are bitwise, not approximate.
"""

import json

import pytest

from ccrflow import Condition, ExperimentReport, certified_bound, load_report, number_state


def test_report_round_trip_and_csv(tmp_path):
    rep = ExperimentReport(
        check="demo",
        params={"n": 3, "t": 0.1},
        conditions=(Condition("error", 1.2345678901234567e-5, "<=", 1e-3),
                    Condition("floor", 0.75, ">=", 0.5)),
        details={"note": "fine"},
        curve=[{"t": 0.0, "v": 2.0}, {"t": 1.0, "v": 0.5}],
    )
    rep.save(tmp_path / "demo")
    back = load_report(tmp_path / "demo")
    assert back.check == rep.check
    assert back.params == rep.params
    assert back.measured == rep.measured == 1.2345678901234567e-5
    assert back.bound == rep.bound == 1e-3
    assert back.conditions == rep.conditions
    assert back.passed == rep.passed is True
    assert back.details == rep.details
    csv_text = (tmp_path / "demo.csv").read_text().splitlines()
    assert csv_text[0] == "t,v"
    assert csv_text[1] == "0,2"
    json_data = json.loads((tmp_path / "demo.json").read_text())
    assert json_data["pass"] is True
    assert set(json_data) == {"check", "params", "measured", "bound", "pass", "conditions",
                              "details"}
    assert json_data["conditions"] == [
        {"name": "error", "measured": 1.2345678901234567e-5, "sense": "<=", "bound": 1e-3,
         "pass": True},
        {"name": "floor", "measured": 0.75, "sense": ">=", "bound": 0.5, "pass": True},
    ]


def test_report_summary_line():
    rep = ExperimentReport("demo", {}, (Condition("gap", 0.5, "<=", 1.0),))
    assert rep.summary_line() == "[PASS] demo: gap 0.5 vs bound <= 1"
    bad = ExperimentReport("demo", {}, (Condition("gap", 2.0, "<=", 1.0),))
    assert bad.summary_line().startswith("[FAIL]")


def test_verdict_names_its_first_failing_condition():
    conditions = (Condition("composition_defect", 1e-9, "<=", 1e-6),
                  Condition("unitarity_defect", 3e-6, "<=", 1e-6),
                  Condition("floor", 0.5, ">=", 1.0))
    rep = ExperimentReport("weyl", {}, conditions)
    assert rep.passed is False
    assert (rep.measured, rep.bound) == (1e-9, 1e-6)  # the headline is the first condition
    assert rep.summary_line() == "[FAIL] weyl: unitarity_defect 3e-06 vs bound <= 1e-06"
    assert ExperimentReport("weyl", {}, conditions[:1]).summary_line() == (
        "[PASS] weyl: composition_defect 1e-09 vs bound <= 1e-06")
    # a verdict needs a condition, and the headline is read, never stated
    with pytest.raises(ValueError, match="at least one condition"):
        ExperimentReport("mono", {}, ())
    with pytest.raises(TypeError):
        ExperimentReport("weyl", {}, conditions, measured=2.0, bound=3.0)
    with pytest.raises(ValueError, match="sense"):
        ExperimentReport("demo", {}, (Condition("gap", 1.0, ">", 0.0),))
    with pytest.raises(TypeError):
        ExperimentReport("demo", {}, conditions, passed=True)


def test_certificate_json(tmp_path):
    rep = certified_bound(
        number_state(0, 24), number_state(1, 24), t=4.0, epsilon=2.0, delta=1.0,
    )
    rep.save(tmp_path / "cert")
    back = load_report(tmp_path / "cert")
    assert back == rep
    data = back.details
    assert back.bound == data["term1"] + data["term2"] + data["term3"]
    assert data["slack"] == back.bound - back.measured
    assert back.params["t"] == 4.0
    # the bound, the distance, the pairing and the params are stated once,
    # in the conditions and the params
    assert set(data) == {
        "term1", "term2", "term3", "slack", "tv_gap", "omega0_trace_norm",
        "pairing_nodes", "levels", "lost_trace",
    }
