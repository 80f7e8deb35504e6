"""Unit tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(
            ["run", "--graph", "road-ca-mini", "--algorithm", "cc"]
        )
        assert args.engine == "lazy-block"
        assert args.machines == 48

    def test_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--graph", "g", "--algorithm", "cc", "--engine", "bogus"]
            )

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--graph", "g", "--algorithm", "nope"])


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "web-uk-mini" in out
        assert "UK-2005" in out

    def test_info(self, capsys):
        assert main(["info", "--graph", "road-ca-mini"]) == 0
        out = capsys.readouterr().out
        assert "diameter_estimate" in out

    def test_run(self, capsys):
        rc = main(
            ["run", "--graph", "road-ca-mini", "--algorithm", "cc",
             "--machines", "4", "--top", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged=True" in out
        assert "top 2" in out

    def test_run_with_algorithm_params(self, capsys):
        rc = main(
            ["run", "--graph", "road-ca-mini", "--algorithm", "kcore",
             "--machines", "4", "--k", "3", "--engine", "powergraph-sync"]
        )
        assert rc == 0
        assert "powergraph-sync/kcore" in capsys.readouterr().out

    def test_compare(self, capsys):
        rc = main(
            ["compare", "--graph", "road-ca-mini", "--algorithm", "cc",
             "--machines", "4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "normalized traffic" in out

    def test_sweep(self, capsys):
        rc = main(
            ["sweep", "--graph", "road-ca-mini", "--algorithm", "cc",
             "--machine-counts", "2,4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "lazy-block" in out and "powergraph-sync" in out

    def test_run_trace(self, capsys):
        rc = main(
            ["run", "--graph", "road-ca-mini", "--algorithm", "cc",
             "--machines", "4", "--trace"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "active" in out and "supersteps:" in out

    def test_validate_ok(self, capsys, tmp_path, er_weighted):
        from repro.graph.io import save_edge_list

        path = tmp_path / "g.txt"
        save_edge_list(er_weighted, path)
        rc = main(
            ["validate", "--graph-file", str(path), "--algorithm", "cc",
             "--machines", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK" in out and "MISMATCH" not in out

    def test_validate_dimacs_input(self, capsys, tmp_path, er_weighted):
        from repro.graph.io import save_dimacs

        path = tmp_path / "g.gr"
        save_dimacs(er_weighted, path)
        rc = main(
            ["validate", "--graph-file", str(path), "--algorithm", "sssp",
             "--machines", "3"]
        )
        assert rc == 0


class TestLensCli:
    def _write_lens_trace(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        rc = main(
            ["run", "--graph", "road-ca-mini", "--algorithm", "pagerank",
             "--machines", "4", "--engine", "lazy-block", "--lens",
             "--trace-out", str(path)]
        )
        assert rc == 0
        return path

    def test_run_lens_flag_rejected_on_eager_engine(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="lens"):
            main(
                ["run", "--graph", "road-ca-mini", "--algorithm",
                 "pagerank", "--machines", "4", "--engine",
                 "powergraph-sync", "--lens"]
            )

    def test_report_on_clean_lens_trace(self, capsys, tmp_path):
        path = self._write_lens_trace(tmp_path)
        capsys.readouterr()
        assert main(["report", str(path), "--strict"]) == 0
        captured = capsys.readouterr()
        assert "WARNING" not in captured.err

    def test_report_strict_exits_3_on_anomaly(self, capsys, tmp_path):
        import json

        path = self._write_lens_trace(tmp_path)
        doctored = tmp_path / "doctored.trace.jsonl"
        with open(path) as src, open(doctored, "w") as dst:
            for line in src:
                rec = json.loads(line)
                if rec.get("name") == "lens-exchange":
                    rec["attrs"]["mass_after"] = 99.0
                dst.write(json.dumps(rec) + "\n")
        capsys.readouterr()
        assert main(["report", str(doctored)]) == 0  # warn-only by default
        assert "pending-after-exchange" in capsys.readouterr().err
        assert main(["report", str(doctored), "--strict"]) == 3

    def test_report_warns_on_untracked_charges(self, capsys, tmp_path):
        import json

        path = tmp_path / "t.jsonl"
        records = [
            {"type": "trace_header", "format": "repro-trace", "version": 1},
            {"type": "run_meta", "meta": {
                "engine": "x", "untracked_charges": {"comm": 0.5}}},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["report", str(path)]) == 0
        err = capsys.readouterr().err
        assert "WARNING" in err and "NOT attributed" in err

    def test_dashboard_command_writes_html(self, capsys, tmp_path):
        path = self._write_lens_trace(tmp_path)
        out = tmp_path / "run.html"
        assert main(["dashboard", str(path), "-o", str(out)]) == 0
        html_doc = out.read_text()
        assert html_doc.startswith("<!DOCTYPE html>")
        assert 'id="convergence"' in html_doc
        assert 'id="machine-timeline"' in html_doc
        assert "dashboard written" in capsys.readouterr().out


class TestPolicyCli:
    def test_run_with_named_policy(self, capsys):
        rc = main(
            ["run", "--graph", "road-ca-mini", "--algorithm", "pagerank",
             "--machines", "4", "--engine", "lazy-vertex",
             "--policy", "batched"]
        )
        assert rc == 0
        assert "converged=True" in capsys.readouterr().out

    def test_run_with_policy_opts(self, capsys):
        rc = main(
            ["run", "--graph", "road-ca-mini", "--algorithm", "pagerank",
             "--machines", "4", "--engine", "lazy-vertex",
             "--policy", "staleness", "--policy-opt", "mass_floor=0.3",
             "--policy-opt", "max_delta_age=4"]
        )
        assert rc == 0
        assert "converged=True" in capsys.readouterr().out

    def test_policy_opt_alone_implies_paper_policy(self, capsys):
        rc = main(
            ["run", "--graph", "road-ca-mini", "--algorithm", "cc",
             "--machines", "4", "--engine", "lazy-vertex",
             "--policy-opt", "max_delta_age=2"]
        )
        assert rc == 0

    def test_malformed_policy_opt_rejected(self):
        with pytest.raises(SystemExit, match="K=V"):
            main(
                ["run", "--graph", "road-ca-mini", "--algorithm", "cc",
                 "--machines", "4", "--engine", "lazy-vertex",
                 "--policy-opt", "max_delta_age"]
            )

    def test_unknown_policy_name_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--graph", "g", "--algorithm", "cc",
                 "--policy", "bogus"]
            )

    def test_removed_interval_flag_is_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--graph", "road-ca-mini", "--algorithm",
                 "pagerank", "--machines", "4", "--engine", "lazy-block",
                 "--interval", "simple"]
            )

    def test_named_strawman_policy_replaces_the_flag(self):
        rc = main(
            ["run", "--graph", "road-ca-mini", "--algorithm",
             "pagerank", "--machines", "4", "--engine", "lazy-block",
             "--policy", "simple"]
        )
        assert rc == 0

    def test_policy_opt_interval_is_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="'interval'"):
            main(
                ["run", "--graph", "road-ca-mini", "--algorithm",
                 "pagerank", "--machines", "4", "--engine", "lazy-block",
                 "--policy-opt", "interval=simple"]
            )

    def test_policy_rejected_on_eager_engine(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="interval"):
            main(
                ["run", "--graph", "road-ca-mini", "--algorithm",
                 "pagerank", "--machines", "4", "--engine",
                 "powergraph-sync", "--policy", "paper"]
            )


class TestDashboardCompare:
    def _trace(self, tmp_path, policy, name):
        path = tmp_path / name
        rc = main(
            ["run", "--graph", "road-ca-mini", "--algorithm", "pagerank",
             "--machines", "4", "--engine", "lazy-vertex", "--lens",
             "--policy", policy, "--trace-out", str(path)]
        )
        assert rc == 0
        return path

    def test_compare_two_traces(self, capsys, tmp_path):
        a = self._trace(tmp_path, "paper", "a.jsonl")
        b = self._trace(tmp_path, "batched", "b.jsonl")
        out = tmp_path / "cmp.html"
        capsys.readouterr()
        assert main(
            ["dashboard", "--compare", str(a), str(b), "-o", str(out)]
        ) == 0
        html_doc = out.read_text()
        assert html_doc.startswith("<!DOCTYPE html>")
        assert 'id="compare-summary"' in html_doc
        assert 'id="convergence"' in html_doc
        assert 'id="traffic"' in html_doc
        assert 'id="decisions"' in html_doc
        # default labels are the trace file names
        assert "a.jsonl" in html_doc and "b.jsonl" in html_doc
        # still fully offline: no scripts, stylesheets or CDNs
        assert "<script" not in html_doc
        assert "http://" not in html_doc and "https://" not in html_doc
        assert "<link" not in html_doc
        assert "dashboard written" in capsys.readouterr().out

    def test_compare_custom_labels(self, tmp_path):
        a = self._trace(tmp_path, "paper", "a.jsonl")
        b = self._trace(tmp_path, "staleness", "b.jsonl")
        out = tmp_path / "cmp.html"
        assert main(
            ["dashboard", "--compare", str(a), str(b),
             "--labels", "baseline", "candidate", "-o", str(out)]
        ) == 0
        html_doc = out.read_text()
        assert "baseline" in html_doc and "candidate" in html_doc

    def test_trace_and_compare_together_rejected(self, capsys, tmp_path):
        a = self._trace(tmp_path, "paper", "a.jsonl")
        assert main(
            ["dashboard", str(a), "--compare", str(a), str(a)]
        ) == 2
        assert "not both" in capsys.readouterr().err

    def test_neither_trace_nor_compare_rejected(self, capsys):
        assert main(["dashboard"]) == 2
        assert "required" in capsys.readouterr().err


class TestRecordFileCommands:
    """report/analyze/dashboard/top/slo read the header, fail loudly."""

    GOLDEN = Path(__file__).parents[1] / "data" / "golden_trace.jsonl"

    def _telemetry(self, tmp_path):
        import json

        path = tmp_path / "service.telemetry.jsonl"
        path.write_text(
            json.dumps({"type": "telemetry_header",
                        "format": "repro-telemetry", "version": 1}) + "\n"
            + json.dumps({"type": "telemetry", "seq": 0}) + "\n"
        )
        return str(path)

    def test_analyze_on_telemetry_file_exits_2(self, capsys, tmp_path):
        path = self._telemetry(tmp_path)
        assert main(["analyze", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert path in line and "repro-telemetry" in line
        assert "'repro top'" in line

    def test_report_on_cut_trace_drops_the_torn_line(self, capsys, tmp_path):
        text = self.GOLDEN.read_text(encoding="utf-8")
        cut = tmp_path / "cut.trace.jsonl"
        cut.write_text(text[:-20])  # kill the writer mid run_meta line
        assert main(["report", str(cut)]) == 0
        assert "per-phase modeled time" in capsys.readouterr().out

    def test_report_on_missing_file_exits_2(self, capsys, tmp_path):
        path = str(tmp_path / "missing.jsonl")
        assert main(["report", path]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert path in line

    def test_report_on_malformed_line_names_it(self, capsys, tmp_path):
        lines = self.GOLDEN.read_text(encoding="utf-8").splitlines(True)
        lines[3] = lines[3][:25] + "\n"
        bad = tmp_path / "bad.trace.jsonl"
        bad.write_text("".join(lines))
        assert main(["report", str(bad)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert f"{bad}:4:" in line

    @pytest.mark.parametrize("argv", [
        ["top", "{trace}"],
        ["slo", "{trace}", "--p95-ms", "1"],
        ["dashboard", "{telemetry}", "-o", "{out}"],
        ["report", "{empty}"],
    ])
    def test_wrong_kind_or_empty_file_exits_2(self, capsys, tmp_path, argv):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        names = {
            "trace": str(self.GOLDEN), "telemetry": self._telemetry(tmp_path),
            "out": str(tmp_path / "d.html"), "empty": str(empty),
        }
        argv = [a.format(**names) for a in argv]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert argv[1] in line
        assert not (tmp_path / "d.html").exists()


class TestMutateCli:
    BATCH = '{"add_edges": [[0, 17], [42, 7]], "remove_vertices": [9]}'

    def test_mutation_stream_round_trip(self, capsys, tmp_path):
        import json

        from repro.obs.mutation_report import analyze_mutation_stream
        from repro.obs.sinks import read_jsonl

        path = tmp_path / "mut.jsonl"
        rc = main(
            ["mutate", "--graph", "road-ca-mini", "--machines", "8",
             "--algorithm", "pagerank", "--compare-cold",
             "--batch-json", self.BATCH, "--out", str(path)]
        )
        assert rc == 0
        stdout = capsys.readouterr().out.splitlines()
        lines = path.read_text().splitlines()
        assert stdout == lines
        assert json.loads(lines[0]) == {
            "type": "mutation_header", "format": "repro-mutations",
            "version": 1,
        }
        header, records = read_jsonl(str(path))
        assert [r["event"] for r in records] == ["run", "apply", "run"]
        events = [json.loads(x) for x in stdout[1:]]
        assert analyze_mutation_stream(records) == analyze_mutation_stream(
            events
        )

        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mutation stream" in out and "inc_ss" in out
        assert "totals: 1 batches (+2/-4 edges)" in out
