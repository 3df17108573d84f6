"""The run_all orchestrator: markdown + JSON generation."""

import json

import pytest

from repro.analysis.tables import Claim, ExperimentResult, Series
from repro.experiments import run_all


class _StubModule:
    __name__ = "stub"

    @staticmethod
    def run():
        return [
            ExperimentResult(
                exp_id="stub1",
                title="stub experiment",
                x_label="x",
                y_label="y",
                series=[Series("s", [1, 2], [3.0, 4.0])],
                claims=[Claim("works", "yes", "measured", True)],
            ),
            ExperimentResult(
                exp_id="stub2",
                title="second",
                x_label="x",
                y_label="y",
                claims=[Claim("fails", "no", "sadly", False)],
            ),
        ]


class TestWriteMarkdown:
    def results(self):
        return _StubModule.run()

    def test_markdown_structure(self, tmp_path, capsys):
        out = tmp_path / "EXP.md"
        run_all.write_markdown(self.results(), out)
        text = out.read_text()
        assert text.startswith("# EXPERIMENTS")
        assert "**Claims held: 1 / 2.**" in text
        assert "### stub1" in text and "### stub2" in text
        assert "**no**" in text  # the failed claim is flagged
        assert str(out) in capsys.readouterr().out

    def test_json_export(self, tmp_path):
        out = tmp_path / "data.json"
        run_all.write_json(self.results(), out)
        data = json.loads(out.read_text())
        assert len(data) == 2
        assert data[0]["exp_id"] == "stub1"
        assert data[0]["series"][0]["y"] == [3.0, 4.0]
        assert data[1]["claims"][0]["holds"] is False


class TestMainPlumbing:
    def test_main_with_stubbed_modules(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(run_all, "MODULES", [_StubModule])
        md = tmp_path / "EXP.md"
        js = tmp_path / "data.json"
        run_all.main([str(md), "--json", str(js)])
        assert md.exists() and js.exists()
        out = capsys.readouterr().out
        assert "stub1" in out
        assert "1/2 claims hold" in out

    @pytest.mark.parametrize("argv", [
        ["--jobs"], ["--json"], ["--jobs", "two"], ["--jobz", "4"],
    ])
    def test_bad_arguments_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        """A missing value, a non-integer job count or a misspelt flag is a
        usage error: no experiment runs and no file is written."""
        def _must_not_run(jobs=None):
            raise AssertionError("an experiment ran")

        monkeypatch.setattr(run_all, "run_everything", _must_not_run)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_all.main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_arguments_parsed(self, tmp_path):
        args = run_all.parse_args(
            [str(tmp_path / "o.md"), "--jobs", "2", "--json", "d.json"]
        )
        assert (args.output, args.jobs, str(args.json)) == (
            tmp_path / "o.md", 2, "d.json"
        )
        default = run_all.parse_args([])
        assert default.output.name == "EXPERIMENTS.md"
        assert default.jobs is None and default.json is None

    def test_module_list_covers_every_experiment(self):
        """Everything importable under repro.experiments with run() must be
        registered in run_all (so EXPERIMENTS.md can't silently go stale)."""
        import repro.experiments as exp

        registered = {m.__name__ for m in run_all.MODULES}
        for name in exp.__all__:
            module = getattr(exp, name)
            if hasattr(module, "run"):
                assert module.__name__ in registered, name
