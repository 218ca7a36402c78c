"""What a run writes: report JSON with its curve CSV, and the certificate
report of the purity check.

Curve cells print floats with %.17g, which round-trips IEEE doubles
exactly, so the equality checks below are bitwise, not approximate.
"""

import json

from ccrflow import ExperimentReport, certified_bound, load_report, number_state


def test_report_round_trip_and_csv(tmp_path):
    rep = ExperimentReport(
        check="demo",
        params={"n": 3, "t": 0.1},
        measured=1.2345678901234567e-5,
        bound=1e-3,
        passed=True,
        details={"note": "fine"},
        curve=[{"t": 0.0, "v": 2.0}, {"t": 1.0, "v": 0.5}],
    )
    rep.save(tmp_path / "demo")
    back = load_report(tmp_path / "demo")
    assert back.check == rep.check
    assert back.params == rep.params
    assert back.measured == rep.measured
    assert back.bound == rep.bound
    assert back.passed == rep.passed
    assert back.details == rep.details
    csv_text = (tmp_path / "demo.csv").read_text().splitlines()
    assert csv_text[0] == "t,v"
    assert csv_text[1] == "0,2"
    json_data = json.loads((tmp_path / "demo.json").read_text())
    assert json_data["pass"] is True
    assert set(json_data) == {"check", "params", "measured", "bound", "pass", "details"}


def test_report_summary_line():
    rep = ExperimentReport("demo", {}, 0.5, 1.0, True)
    line = rep.summary_line()
    assert line.startswith("[PASS] demo:")
    bad = ExperimentReport("demo", {}, 2.0, 1.0, False)
    assert bad.summary_line().startswith("[FAIL]")


def test_certificate_json(tmp_path):
    rep = certified_bound(
        number_state(0, 24), number_state(1, 24), t=4.0, epsilon=2.0, delta=1.0,
    )
    rep.save(tmp_path / "cert")
    back = load_report(tmp_path / "cert")
    assert back == rep
    data = back.details
    assert data["bound"] == back.bound == data["term1"] + data["term2"] + data["term3"]
    assert data["slack"] == back.bound - back.measured
    assert data["measured"] == back.measured
    assert data["details"]["t"] == 4.0
    assert set(data) == {
        "epsilon", "term1", "term2", "term3", "measured",
        "bound", "slack", "details",
    }
    assert set(data["details"]) == {
        "t", "delta", "truncation", "tv_gap", "omega0_trace_norm",
        "pairing_inner_product", "pairing_nodes", "levels", "lost_trace",
    }
