"""Unit tests for the run dashboard (repro.obs.dashboard) and auditor."""

import re

import pytest

from repro.obs import Tracer
from repro.obs.audit import LensAuditor
from repro.obs.dashboard import render_dashboard
from repro.obs.report import TraceData, trace_from_records
from repro.run_api import run


@pytest.fixture(scope="module")
def lens_trace():
    tracer = Tracer()
    run("road-ca-mini", "pagerank", engine="lazy-block", machines=4,
        seed=0, tracer=tracer, lens=True)
    return trace_from_records(tracer.records, tracer.meta)


class TestRenderDashboard:
    def test_required_sections_embedded(self, lens_trace):
        html = render_dashboard(lens_trace)
        assert 'id="convergence"' in html
        assert 'id="machine-timeline"' in html
        assert 'id="anomalies"' in html
        assert 'id="channels"' in html
        assert 'id="lens-mass"' in html

    def test_self_contained_no_third_party(self, lens_trace):
        html = render_dashboard(lens_trace)
        # no external fetches of any kind: scripts, stylesheets, CDNs
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html
        assert "<link" not in html
        assert html.startswith("<!DOCTYPE html>")

    def test_convergence_curve_has_points(self, lens_trace):
        html = render_dashboard(lens_trace)
        conv = html.split('id="convergence"')[1].split("</section>")[0]
        assert "<polyline" in conv

    def test_machine_timeline_has_a_lane_per_machine(self, lens_trace):
        html = render_dashboard(lens_trace)
        tl = html.split('id="machine-timeline"')[1].split("</section>")[0]
        lanes = set(re.findall(r">m(\d+)</text>", tl))
        assert lanes == {"0", "1", "2", "3"}
        assert "<rect" in tl

    def test_clean_run_shows_good_flag(self, lens_trace):
        html = render_dashboard(lens_trace)
        assert "all lens invariants hold" in html

    def test_empty_trace_degrades_gracefully(self):
        html = render_dashboard(TraceData(meta={"engine": "x"}))
        assert 'id="convergence"' in html
        assert 'id="machine-timeline"' in html
        assert "lens=True" in html  # the how-to-enable hint

    def test_values_are_escaped(self):
        trace = TraceData(meta={"engine": "<script>alert(1)</script>"})
        html = render_dashboard(trace)
        assert "<script>alert" not in html


class TestLensAuditor:
    def test_clean_lens_trace_has_no_anomalies(self, lens_trace):
        assert LensAuditor(lens_trace).audit() == []

    def test_untracked_charges_flagged(self):
        trace = TraceData(meta={"untracked_charges": {"comm": 0.5}})
        anomalies = LensAuditor(trace).audit()
        assert [a.code for a in anomalies] == ["untracked-charges"]
        assert anomalies[0].severity == "warning"

    def test_pending_mass_after_exchange_flagged(self):
        trace = TraceData(instants=[{
            "type": "instant", "name": "lens-exchange",
            "attrs": {"superstep": 4, "mass_after": 2.0,
                      "pending_after": 3},
        }])
        anomalies = LensAuditor(trace).audit()
        assert [a.code for a in anomalies] == ["pending-after-exchange"]
        assert anomalies[0].severity == "critical"

    def test_final_drift_flagged_only_when_converged(self):
        def final(converged):
            return TraceData(instants=[{
                "type": "instant", "name": "lens-final",
                "attrs": {"converged": converged, "drift": 0.25},
            }])

        assert [a.code for a in LensAuditor(final(True)).audit()] == [
            "final-drift"
        ]
        assert LensAuditor(final(False)).audit() == []

    def test_decision_count_mismatch_flagged(self):
        trace = TraceData(
            instants=[
                {"type": "instant", "name": "lens-final",
                 "attrs": {"converged": True, "drift": 0.0}},
                {"type": "instant", "name": "coherency-decision",
                 "attrs": {"kind": "coherency"}},
            ],
            meta={"stats": {"coherency_points": 2}},
        )
        anomalies = LensAuditor(trace).audit()
        assert [a.code for a in anomalies] == ["decision-mismatch"]

    def test_ledger_mismatch_flagged(self):
        trace = TraceData(meta={"stats": {
            "comm_bytes": 100.0,
            "extra": {"comms.control.bytes": 40.0,
                      "comms.delta_a2a.bytes": 40.0},
        }})
        anomalies = LensAuditor(trace).audit()
        assert [a.code for a in anomalies] == ["ledger-mismatch"]
        assert "comm_bytes" in anomalies[0].message

    def test_non_lens_trace_skips_lens_only_checks(self):
        trace = TraceData(meta={"stats": {"coherency_points": 5}})
        assert LensAuditor(trace).audit() == []


class TestCompareDashboard:
    @pytest.fixture(scope="class")
    def two_traces(self):
        traces = []
        for policy in ("paper", "batched"):
            tracer = Tracer()
            run("road-ca-mini", "pagerank", engine="lazy-vertex",
                machines=4, seed=0, policy=policy, tracer=tracer, lens=True)
            traces.append(trace_from_records(tracer.records, tracer.meta))
        return traces

    def test_overlay_sections_present(self, two_traces):
        from repro.obs.dashboard import render_compare_dashboard

        html = render_compare_dashboard(two_traces, ["base", "cand"])
        assert 'id="compare-summary"' in html
        assert 'id="convergence"' in html
        assert 'id="traffic"' in html
        assert 'id="decisions"' in html
        assert "base" in html and "cand" in html
        # both runs' coherency-point counts land in the summary tiles
        for trace in two_traces:
            assert str(trace.stats["coherency_points"]) in html

    def test_self_contained_like_the_single_run_dashboard(self, two_traces):
        from repro.obs.dashboard import render_compare_dashboard

        html = render_compare_dashboard(two_traces)
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html
        assert "<link" not in html

    def test_requires_exactly_two_traces(self, two_traces):
        from repro.obs.dashboard import render_compare_dashboard

        with pytest.raises(ValueError, match="2 traces"):
            render_compare_dashboard(two_traces[:1])
        with pytest.raises(ValueError, match="2 traces"):
            render_compare_dashboard(two_traces + two_traces[:1])

    def test_labels_are_escaped(self, two_traces):
        from repro.obs.dashboard import render_compare_dashboard

        html = render_compare_dashboard(
            two_traces, ["<script>alert(1)</script>", "b"]
        )
        assert "<script>alert" not in html
