"""The run_all orchestrator: markdown + JSON generation, and its pool.

The pool's contract is that parallelism is invisible in the results:
modules come back in module order for every job count.  A crashed
worker costs one resubmit of the map, a second crash raises
:class:`~repro.errors.WorkerError`, and a module's own exception
propagates unchanged.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.tables import Claim, ExperimentResult, Series
from repro.errors import WorkerError
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
        monkeypatch.setitem(sys.modules, "stub", _StubModule)
        monkeypatch.setattr(run_all, "MODULES", ["stub"])
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
        """Every module under repro.experiments with run() must be
        registered in run_all (so EXPERIMENTS.md can't silently go stale)."""
        import repro.experiments as exp

        registered = set(run_all.MODULES)
        for info in pkgutil.iter_modules(exp.__path__):
            module = importlib.import_module(f"{exp.__name__}.{info.name}")
            if hasattr(module, "run"):
                assert module.__name__ in registered, info.name

    def test_cli_names(self):
        from repro.cli import build_parser

        names = [run_all.cli_name(m) for m in run_all.MODULES]
        assert names == [
            "tables", "fig3", "fig4", "fig5", "fig6", "fig7", "fp64",
            "multicluster", "autotune", "workloads", "sensitivity",
            "hetero", "bandwidth",
        ]
        parser = build_parser()
        for name in names + ["all"]:
            assert parser.parse_args(["experiment", name]).name == name

    def test_cli_start_imports_no_experiment(self):
        """``repro gemm`` builds the whole parser, experiment names
        included, without importing one experiment module."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = (
            "import sys\n"
            "from repro.cli import main\n"
            "main(['gemm', '64x16x64', '--timing', 'analytic'])\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('repro.experiments.')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        last = proc.stdout.strip().splitlines()[-1]
        assert last == "['repro.experiments.run_all']"


def _result(exp_id: str) -> list[ExperimentResult]:
    return [ExperimentResult(exp_id=exp_id, title=exp_id, x_label="x",
                             y_label="y")]


def _stub(name: str, run=None) -> SimpleNamespace:
    """A stand-in experiment module; pool workers are forked, so they see
    the stubs a test installs in ``sys.modules``."""
    return SimpleNamespace(__name__=name, run=run or (lambda: _result(name)))


def _boom():
    raise ValueError("boom in stub")


def _die():
    os._exit(1)


def _die_once(marker: str):
    """Kill the worker the first time any worker runs this module."""
    def run():
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            return _result("survivor")
        os.close(fd)
        os._exit(1)
    return run


def _ids(results) -> list[str]:
    return [r.exp_id for r in results]


class TestPool:
    @pytest.fixture
    def stubs(self, monkeypatch):
        def install(*modules):
            for module in modules:
                monkeypatch.setitem(sys.modules, module.__name__, module)
            monkeypatch.setattr(run_all, "MODULES",
                                [m.__name__ for m in modules])
        return install

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_results_in_module_order(self, stubs, jobs, capsys):
        names = [f"m{i}" for i in range(6, -1, -1)]
        stubs(*map(_stub, names))
        assert _ids(run_all.run_everything(jobs)) == names
        assert f"on {jobs} workers" in capsys.readouterr().out

    def test_jobs_clamped_to_module_count(self, stubs, capsys):
        stubs(_stub("only"))
        assert _ids(run_all.run_everything(8)) == ["only"]
        assert "on 1 workers" in capsys.readouterr().out

    def test_nonpositive_jobs_clamped_to_one(self, stubs, capsys):
        stubs(_stub("a"), _stub("b"))
        for jobs in (0, -3):
            assert _ids(run_all.run_everything(jobs)) == ["a", "b"]
            assert "on 1 workers" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "knob", ["timeout", "retries", "min_units", "chunksize"]
    )
    def test_removed_knobs_rejected(self, stubs, knob, capsys):
        """The pool has no timeout, retry count, minimum work size or chunk
        size, neither as a keyword nor as a command-line flag."""
        stubs(_stub("a"))
        with pytest.raises(TypeError, match=knob):
            run_all.run_everything(2, **{knob: 1})
        with pytest.raises(SystemExit) as exc:
            run_all.parse_args(["--" + knob.replace("_", "-"), "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_default_jobs_is_cpu_count(self, stubs, monkeypatch, capsys):
        monkeypatch.setattr(run_all.os, "cpu_count", lambda: 1)
        stubs(_stub("a"), _stub("b"))
        run_all.run_everything()
        assert "on 1 workers" in capsys.readouterr().out

    def test_one_job_runs_in_process(self, stubs, monkeypatch):
        def no_pool(**_kw):
            raise AssertionError("a pool was created")

        monkeypatch.setattr(run_all, "ProcessPoolExecutor", no_pool)
        stubs(_stub("a"), _stub("b"))
        assert _ids(run_all.run_everything(1)) == ["a", "b"]

    def test_pool_refused_runs_serially(self, stubs, monkeypatch):
        def refuse(**_kw):
            raise OSError("no semaphores here")

        monkeypatch.setattr(run_all, "ProcessPoolExecutor", refuse)
        stubs(_stub("a"), _stub("b"))
        assert _ids(run_all.run_everything(2)) == ["a", "b"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_module_exception_propagates(self, stubs, jobs):
        # unchanged, and not mistaken for a crashed worker
        stubs(_stub("a"), _stub("bad", _boom))
        with pytest.raises(ValueError, match="^boom in stub$"):
            run_all.run_everything(jobs)

    def test_one_crash_is_survived_by_the_resubmit(self, stubs, tmp_path):
        marker = str(tmp_path / "crashed")
        stubs(_stub("a"), _stub("survivor", _die_once(marker)), _stub("c"))
        assert _ids(run_all.run_everything(2)) == ["a", "survivor", "c"]
        assert os.path.exists(marker)

    def test_second_crash_raises_worker_error(self, stubs):
        stubs(_stub("a"), _stub("dies", _die))
        with pytest.raises(WorkerError, match="after one resubmit"):
            run_all.run_everything(2)
