"""The command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParsing:
    def test_shape_parsing(self):
        args = build_parser().parse_args(["classify", "128x32x64"])
        assert args.shape == (128, 32, 64)

    def test_star_separator_accepted(self):
        args = build_parser().parse_args(["classify", "128*32*64"])
        assert args.shape == (128, 32, 64)

    def test_bad_shape_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["classify", "128x32"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestClassify:
    def test_classify_output(self, capsys):
        assert main(["classify", "65536x32x32"]) == 0
        out = capsys.readouterr().out
        assert "type1" in out
        assert "AI" in out

    def test_invalid_dims_reported_cleanly(self, capsys):
        assert main(["classify", "0x32x32"]) == 1
        assert "error" in capsys.readouterr().err


class TestMachine:
    def test_machine_summary(self, capsys):
        assert main(["machine"]) == 0
        out = capsys.readouterr().out
        assert "345.6 GFLOPS" in out
        assert "42.6 GB/s" in out


class TestKernel:
    def test_kernel_summary(self, capsys):
        assert main(["kernel", "6", "64", "128"]) == 0
        out = capsys.readouterr().out
        assert "II=8" in out
        assert "registers" in out

    def test_kernel_table(self, capsys):
        assert main(["kernel", "8", "96", "128", "--table"]) == 0
        assert "VFMULAS32" in capsys.readouterr().out

    def test_kernel_asm(self, capsys):
        assert main(["kernel", "4", "32", "16", "--asm"]) == 0
        out = capsys.readouterr().out
        assert "setup:" in out and "teardown:" in out
        assert "SVBCAST" in out

    def test_tgemm_kernel(self, capsys):
        assert main(["kernel", "6", "32", "128", "--tgemm"]) == 0
        assert "tgemm" in capsys.readouterr().out

    def test_invalid_kernel_reported(self, capsys):
        assert main(["kernel", "6", "200", "128"]) == 1
        assert "error" in capsys.readouterr().err


class TestGemm:
    def test_gemm_both_impls(self, capsys):
        assert main(["gemm", "2048x32x128", "--timing", "analytic"]) == 0
        out = capsys.readouterr().out
        assert "ftimm" in out and "tgemm" in out
        assert "roofline" in out

    def test_gemm_verify(self, capsys):
        assert main([
            "gemm", "512x32x64", "--verify", "--timing", "none",
            "--impl", "ftimm",
        ]) == 0
        out = capsys.readouterr().out
        assert "verify [ftimm]" in out
        err = float(out.split("= ")[1].split()[0])
        assert err < 1e-2

    def test_gemm_cores_and_strategy(self, capsys):
        assert main([
            "gemm", "20480x32x2048", "--cores", "4", "--impl", "ftimm",
            "--timing", "analytic", "--force-strategy", "k",
        ]) == 0
        assert " k " in capsys.readouterr().out

    def test_gemm_trace_export(self, capsys, tmp_path):
        from repro.obs import load_spans, validate_chrome_trace

        out_file = tmp_path / "t.json"
        assert main([
            "gemm", "1024x32x64", "--impl", "ftimm", "--timing", "des",
            "--trace", str(out_file),
        ]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["traceEvents"]
        assert "core0/compute" in capsys.readouterr().out
        validate_chrome_trace(doc)
        assert {"kernel", "dma", "sync"} <= {
            s.category for s in load_spans(out_file)
        }


class TestExperimentCommand:
    def test_tables_experiment(self, capsys):
        assert main(["experiment", "tables"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "VFMULAS32" in out


class TestNewFlags:
    def test_gemm_plan_flag(self, capsys):
        assert main([
            "gemm", "1024x32x64", "--impl", "ftimm", "--timing", "analytic",
            "--plan",
        ]) == 0
        out = capsys.readouterr().out
        assert "traffic by route" in out

    def test_gemm_f64(self, capsys):
        assert main([
            "gemm", "1024x32x64", "--dtype", "f64", "--timing", "analytic",
            "--verify",
        ]) == 0
        out = capsys.readouterr().out
        assert "verify [ftimm]" in out
        assert "tgemm" not in out.split("impl")[1].split("\n")[2]

    def test_kernel_f64(self, capsys):
        assert main(["kernel", "8", "48", "128", "--dtype", "f64"]) == 0
        assert "/f64" in capsys.readouterr().out

    def test_experiment_hetero(self, capsys):
        assert main(["experiment", "hetero"]) == 0
        assert "co-execution" in capsys.readouterr().out


class TestTraceInvariants:
    def run_traced(self, tmp_path):
        from repro.obs import load_spans

        path = tmp_path / "t.json"
        assert main(["gemm", "1024x32x64", "--impl", "ftimm",
                     "--timing", "des", "--trace", str(path)]) == 0
        return [s for s in load_spans(path)
                if s.category in ("kernel", "dma", "sync")]

    def test_span_times_non_negative(self, tmp_path):
        spans = self.run_traced(tmp_path)
        assert spans
        for span in spans:
            assert span.start_s >= 0.0
            assert span.duration_s >= 0.0

    def test_compute_rows_have_no_overlap(self, tmp_path):
        # a core's compute pipeline runs one kernel at a time: consecutive
        # spans on any */compute row must not overlap
        by_row = {}
        for span in self.run_traced(tmp_path):
            if span.track.endswith("/compute"):
                by_row.setdefault(span.track, []).append(span)
        assert by_row
        for row, spans in by_row.items():
            spans.sort(key=lambda s: s.start_s)
            for prev, cur in zip(spans, spans[1:]):
                assert cur.start_s >= prev.end_s - 1e-12, row

    def test_summary_utilization_bounded(self, tmp_path):
        from repro.obs import track_busy

        for _n, busy, util in track_busy(self.run_traced(tmp_path)).values():
            assert busy >= 0.0
            assert util <= 1.0 + 1e-9


class TestPerfCommand:
    SHAPE = "64x4096x4096"

    def test_perf_end_to_end(self, capsys, tmp_path):
        runlog = tmp_path / "runs.jsonl"
        assert main(["perf", "--shape", self.SHAPE,
                     "--runlog", str(runlog)]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out
        assert "epoch" in out
        assert "roofline" in out
        lines = runlog.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["schema"] == "repro-perf/1"
        assert record["shape"] == "64x4096x4096"
        assert record["profile"]["epochs"]
        assert record["metrics"]

    def test_perf_compare_diffs_previous_run(self, capsys, tmp_path):
        runlog = tmp_path / "runs.jsonl"
        assert main(["perf", "--shape", self.SHAPE,
                     "--runlog", str(runlog)]) == 0
        capsys.readouterr()
        assert main(["perf", "--shape", self.SHAPE,
                     "--runlog", str(runlog), "--compare"]) == 0
        out = capsys.readouterr().out
        assert "compare:" in out
        assert "seconds" in out
        assert len(runlog.read_text().splitlines()) == 2

    def test_perf_compare_without_history(self, capsys, tmp_path):
        runlog = tmp_path / "runs.jsonl"
        assert main(["perf", "--shape", "512x32x256",
                     "--runlog", str(runlog), "--compare"]) == 0
        assert "no earlier" in capsys.readouterr().out

    def test_perf_metrics_dump(self, capsys, tmp_path):
        runlog = tmp_path / "runs.jsonl"
        assert main(["perf", "--shape", "512x32x256",
                     "--runlog", str(runlog), "--metrics"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert any(name.startswith("sim/") for name in payload)

    def test_perf_tgemm_impl(self, capsys, tmp_path):
        runlog = tmp_path / "runs.jsonl"
        assert main(["perf", "--shape", "512x32x256", "--impl", "tgemm",
                     "--runlog", str(runlog)]) == 0
        assert "tgemm" in capsys.readouterr().out

    def test_gemm_perf_flag(self, capsys):
        assert main(["gemm", "1024x32x64", "--impl", "ftimm",
                     "--timing", "des", "--perf"]) == 0
        assert "verdict" in capsys.readouterr().out

    def test_gemm_trace_prints_row_utilization(self, capsys, tmp_path):
        trace_file = tmp_path / "t.json"
        assert main(["gemm", "1024x32x64", "--impl", "ftimm",
                     "--timing", "des", "--trace", str(trace_file),
                     "--perf"]) == 0
        out = capsys.readouterr().out
        # one DES run feeds the timeline, the row-utilization summary
        # table, and the bottleneck report
        assert "util" in out
        assert "verdict" in out


class TestAutotuneCommand:
    def test_negative_validate_top_reported(self, capsys):
        assert main(["autotune", "2048x32x2048", "--validate-top", "-2"]) == 1
        assert "validate_top" in capsys.readouterr().err

    def test_no_validate_still_runs(self, capsys):
        assert main(["autotune", "512x32x512", "--no-validate"]) == 0
        assert "DES-validated 0" in capsys.readouterr().out

    def test_wall_time_lines_printed(self, capsys):
        assert main(["autotune", "512x32x256"]) == 0
        out = capsys.readouterr().out
        assert "tuner/search_wall_s:" in out
        assert "tuner/des_validate_wall_s:" in out

    def test_removed_flags_rejected(self):
        """The plan database, cross-shape transfer, the stack hint and the
        worker pool are gone: the search depends only on the shape and the
        machine, and runs in-process."""
        for flags in (["--no-transfer"], ["--transfer-tol", "0.25"],
                      ["--stack-hint", "512"], ["--jobs", "2"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["autotune", "64x32x64", *flags])

    @pytest.mark.parametrize("argv", [
        ["gemm", "64x32x64", "--timing", "analytic"],
        ["perf", "--shape", "64x32x64"],
        ["autotune", "64x32x64"],
    ])
    def test_zero_cores_rejected(self, capsys, tmp_path, argv):
        if argv[0] == "perf":
            argv = [*argv, "--runlog", str(tmp_path / "r.jsonl")]
        assert main([*argv, "--cores", "0"]) == 1
        assert "core count 0" in capsys.readouterr().err


class TestServeCommand:
    def test_serve_sweep_runs_and_logs(self, capsys, tmp_path):
        runlog = tmp_path / "runs.jsonl"
        assert main([
            "serve", "--mix", "fem", "--loads", "20000,40000",
            "--n", "16", "--seed", "1", "--runlog", str(runlog),
        ]) == 0
        out = capsys.readouterr().out
        assert "serve sweep: mix=fem" in out
        assert "goodput" in out
        assert "serve/latency/total_s" in out
        record = json.loads(runlog.read_text().splitlines()[-1])
        assert record["impl"] == "serve"
        assert record["shape"] == "mix:fem"
        assert record["profile"]["sweep"][-1]["goodput_rps"] > 0

    def test_serve_compare_naive_and_latency_table(self, capsys, tmp_path):
        runlog = tmp_path / "runs.jsonl"
        assert main([
            "serve", "--mix", "fem", "--loads", "30000", "--n", "12",
            "--compare-naive", "--latency-table",
            "--runlog", str(runlog),
        ]) == 0
        out = capsys.readouterr().out
        assert "naive baseline" in out
        assert "per-request latency" in out
        assert "completed" in out

    def test_serve_policy_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--policy", "magic"])

    def test_removed_serve_modes_rejected(self):
        """Static replication, measured cold tunes, the extra warmup
        modes and the cold-tune and replica knobs (now module constants)
        are gone for good: the config refuses static replication and
        the CLI parses none of them."""
        from repro.errors import PlanError
        from repro.serve import ServeConfig

        with pytest.raises(PlanError, match="replicate_b"):
            ServeConfig(replicate_b="static")
        for flags in (
            ["--replicate-b", "static"], ["--cold-tune", "auto"],
            ["--warm-tune", "search"], ["--observed-hints"],
            ["--no-stack-hints"], ["--cold-tune", "5e-4"],
            ["--replica-budget", "8388608"], ["--max-replicas", "4"],
            ["--promote-after", "2"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", *flags])

    def test_serve_bad_loads_reported_cleanly(self, capsys, tmp_path):
        assert main([
            "serve", "--loads", "two,hundred",
            "--runlog", str(tmp_path / "r.jsonl"),
        ]) == 1
        assert "error" in capsys.readouterr().err

    def test_serve_gateway_audits_bit_identity(self, capsys, tmp_path):
        assert main([
            "serve", "--gateway", "--mix", "fem", "--loads", "30000",
            "--n", "12", "--seed", "3",
            "--runlog", str(tmp_path / "r.jsonl"),
        ]) == 0
        out = capsys.readouterr().out
        assert "records bit-identical to pre-drawn replay: yes" in out
        assert "policy least_loaded: 12 requests" in out
        assert "gateway counters:" not in out


    def test_serve_trace_export_reconstructs(self, capsys, tmp_path):
        from repro.obs import validate_chrome_trace

        out_json = tmp_path / "serve.json"
        assert main([
            "serve", "--mix", "fem", "--loads", "20000,40000", "--n", "16",
            "--seed", "2", "--trace", str(out_json),
            "--runlog", str(tmp_path / "r.jsonl"),
        ]) == 0
        assert "trace:" in capsys.readouterr().out
        validate_chrome_trace(json.loads(out_json.read_text()))
        assert main(["trace", str(out_json)]) == 0
        out = capsys.readouterr().out
        assert "valid Chrome trace" in out
        assert "critical path over 16 completed requests" in out

    def test_serve_trace_sample_range_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--trace-sample", "1.5"])


class TestTraceCommand:
    def _runlog(self, tmp_path, name, max_wait):
        runlog = tmp_path / name
        assert main([
            "serve", "--mix", "fem", "--loads", "40000", "--n", "16",
            "--seed", "2", "--max-wait", max_wait,
            "--runlog", str(runlog),
        ]) == 0
        return runlog

    def test_batch_rows_keep_redispatches(self, tmp_path):
        runlog = self._runlog(tmp_path, "a.jsonl", "2e-3")
        records = [json.loads(line) for line in runlog.read_text().splitlines()]
        rows = [r for r in records if r.get("serve")][-1]["serve"]["batches"]
        assert rows
        for row in rows:
            assert row["redispatches"] == len(row["attempt_errors"])

    def test_single_input_renders_critical_path(self, capsys, tmp_path):
        runlog = self._runlog(tmp_path, "a.jsonl", "2e-3")
        capsys.readouterr()
        assert main(["trace", str(runlog)]) == 0
        out = capsys.readouterr().out
        assert "critical path over" in out
        assert "queue" in out

    def test_two_inputs_diff_tails(self, capsys, tmp_path):
        a = self._runlog(tmp_path, "a.jsonl", "2e-3")
        b = self._runlog(tmp_path, "b.jsonl", "1e-4")
        capsys.readouterr()
        assert main(["trace", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "A: " in out and "B: " in out
        assert "critical-path diff" in out
        assert "dp50 (ms)" in out
        assert "verdict:" in out

    def test_compare_flag_removed(self, capsys, tmp_path):
        # two inputs already diff; the flag is a usage error now
        a = self._runlog(tmp_path, "a.jsonl", "2e-3")
        with pytest.raises(SystemExit) as exc:
            main(["trace", str(a), str(a), "--compare"])
        assert exc.value.code == 2
        assert "--compare" in capsys.readouterr().err

    def test_missing_input_reported_cleanly(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("quantile", ["1.5", "0", "-3"])
    def test_quantile_range_enforced_for_chrome_traces(
        self, capsys, tmp_path, quantile
    ):
        # a .json trace takes the same (0, 1] check as a run-log
        runlog = tmp_path / "r.jsonl"
        trace = tmp_path / "s.json"
        assert main([
            "serve", "--mix", "fem", "--loads", "40000", "--n", "16",
            "--seed", "2", "--trace", str(trace), "--runlog", str(runlog),
        ]) == 0
        capsys.readouterr()
        for path in (runlog, trace):
            assert main(["trace", str(path), "--quantile", quantile]) == 1
            assert "outside (0, 1]" in capsys.readouterr().err
