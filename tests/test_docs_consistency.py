"""Documentation consistency guards.

Docs rot silently; these tests tie the prose artifacts to the code so CI
catches drift: every experiment appears in EXPERIMENTS.md, the README's
example table matches the examples directory, the claims banner parses
and holds, and every documented environment variable is read.
"""

import importlib
import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]


class TestExperimentsMd:
    def test_all_experiments_present(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        from repro.experiments.run_all import MODULES

        for module in MODULES:
            name = module.__name__.rsplit(".", 1)[-1]
            # every module contributes at least one "### <exp_id>" header;
            # exp ids start with the module's short name
            short = "table" if name == "tables123" else name
            assert re.search(rf"### {short}", text), name

    def test_claims_banner_all_hold(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        match = re.search(r"Claims held: (\d+) / (\d+)", text)
        assert match, "claims banner missing"
        held, total = int(match.group(1)), int(match.group(2))
        assert held == total, f"{total - held} claims failing in EXPERIMENTS.md"
        assert total >= 70

    def test_no_failing_claim_markers(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        assert "| **no** |" not in text


class TestReadme:
    def test_example_table_matches_directory(self):
        readme = (ROOT / "README.md").read_text()
        for script in (ROOT / "examples").glob("*.py"):
            assert script.name in readme, f"{script.name} missing from README"

    def test_headline_peaks_match_fig3(self):
        """The README's micro-kernel numbers must match the live model."""
        from repro.kernels.registry import registry_for

        registry = registry_for(repro.default_machine().cluster.core)
        peak_96 = max(
            registry.ftimm(m, 96, 512).efficiency for m in (8, 10, 12, 14)
        )
        readme = (ROOT / "README.md").read_text()
        assert f"{100 * peak_96:.1f}" in readme

    def test_docs_links_resolve(self):
        readme = (ROOT / "README.md").read_text()
        for link in re.findall(r"\]\(([\w/.]+\.md)\)", readme):
            assert (ROOT / link).exists(), link


class TestDesign:
    def test_design_mentions_every_package(self):
        design = (ROOT / "DESIGN.md").read_text()
        for pkg in ("hw", "isa", "kernels", "core", "executor",
                    "baselines", "workloads", "experiments"):
            assert f"repro/{pkg}" in design or f"repro.{pkg}" in design, pkg

    def test_mismatch_note_absent(self):
        """DESIGN.md must record that the paper text was verified (the
        title-collision guard from the task brief)."""
        design = (ROOT / "DESIGN.md").read_text()
        assert "Paper verified" in design

    def test_cited_module_paths_resolve(self):
        """Every backticked `pkg/module` cited in the docs is a module
        under src/repro (a deleted module's citation must go with it)."""
        src = ROOT / "src" / "repro"
        packages = {p.name for p in src.iterdir()
                    if (p / "__init__.py").exists()}
        docs = [ROOT / "DESIGN.md", ROOT / "README.md",
                *sorted((ROOT / "docs").glob("*.md"))]
        cited = 0
        for doc in docs:
            for pkg, mod in re.findall(
                r"`([a-z_]+)/([a-z_0-9]+)(?:\.py)?`", doc.read_text()
            ):
                if pkg not in packages:
                    continue
                cited += 1
                path = src / pkg / mod
                assert (path.with_suffix(".py").exists()
                        or (path / "__init__.py").exists()), (
                    f"{doc.name} cites `{pkg}/{mod}`"
                )
        assert cited > 50

    def test_cited_benchmark_scripts_resolve(self):
        """Every `benchmarks/<name>.py` cited in the docs, the src
        docstrings or the CI workflow exists (a deleted gate's citation
        must go with it)."""
        sources = [ROOT / "DESIGN.md", ROOT / "README.md",
                   *sorted((ROOT / "docs").glob("*.md")),
                   *sorted((ROOT / "src").rglob("*.py")),
                   ROOT / ".github" / "workflows" / "ci.yml"]
        cited = 0
        for source in sources:
            for name in re.findall(r"benchmarks/(\w+)\.py",
                                   source.read_text()):
                cited += 1
                assert (ROOT / "benchmarks" / f"{name}.py").exists(), (
                    f"{source.relative_to(ROOT)} cites benchmarks/{name}.py"
                )
        assert cited > 20

    def test_every_benchmark_script_runs_in_ci(self):
        """Every non-pytest script in benchmarks/ is run by a CI step: a
        gate nothing runs is no gate."""
        ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        run = set(re.findall(r"run: python benchmarks/(\w+)\.py", ci))
        scripts = {p.stem for p in (ROOT / "benchmarks").glob("*.py")
                   if not p.name.startswith("test_")
                   and p.name != "conftest.py"}
        assert "serve_claims" in scripts
        assert scripts <= run, f"not run by CI: {sorted(scripts - run)}"


_ENV_NAME = re.compile(r"\bREPRO_[A-Z0-9_]+")
_ENV_READ = re.compile(
    r"""(?:environ\.get\(|environ\[|getenv\()\s*["'](REPRO_[A-Z0-9_]+)["']"""
)


class TestEnvironment:
    def test_helpers_find_names_and_readers(self):
        assert _ENV_NAME.findall("`REPRO_A=4 python`, REPRO_B") == [
            "REPRO_A", "REPRO_B",
        ]
        code = 'os.environ.get("REPRO_A")\nos.environ[\'REPRO_B\']\n' \
               'os.getenv( "REPRO_C", "1")\nprint("REPRO_D")'
        assert _ENV_READ.findall(code) == ["REPRO_A", "REPRO_B", "REPRO_C"]

    def test_documented_variables_have_a_reader(self):
        """Every ``REPRO_*`` variable README.md, DESIGN.md or docs/*.md
        names is read somewhere under src/.  perfbench/ documents its
        own variables and is not scanned."""
        docs = [ROOT / "README.md", ROOT / "DESIGN.md",
                *sorted((ROOT / "docs").glob("*.md"))]
        named = {(doc.name, var) for doc in docs
                 for var in _ENV_NAME.findall(doc.read_text())}
        read = {var for path in (ROOT / "src").rglob("*.py")
                for var in _ENV_READ.findall(path.read_text())}
        unread = sorted((doc, var) for doc, var in named if var not in read)
        assert not unread, f"docs name variables nothing reads: {unread}"


def _code_spans(text):
    """Fenced code blocks and inline backtick spans of a markdown text."""
    fenced = re.findall(r"```.*?```", text, flags=re.S)
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    # an inline span may wrap onto the next line, not into a new paragraph
    return [*fenced, *re.findall(r"`((?:[^`\n]|\n(?!\n))+)`", prose)]


def _resolve(path):
    """The object a dotted ``repro.<name>...`` path names.

    The longest importable prefix is imported first; the whole path is
    then walked attribute by attribute from ``repro``, as a reader who
    imported that module would.
    """
    parts = path.split(".")
    for end in range(len(parts), 1, -1):
        try:
            importlib.import_module(".".join(parts[:end]))
        except ModuleNotFoundError:
            continue
        break
    obj = repro
    for name in parts[1:]:
        obj = getattr(obj, name)
    return obj


class TestCitedPaths:
    def test_cited_repro_paths_resolve(self):
        """Every dotted ``repro.<name>...`` cited in backticks or a code
        block of README.md or docs/*.md resolves, and is callable where
        the citation calls it."""
        docs = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
        path = re.compile(r"(?<![\w/.])repro(?:\.[A-Za-z_]\w*)+(\()?")
        cited, broken = 0, []
        for doc in docs:
            for span in _code_spans(doc.read_text()):
                for m in path.finditer(span):
                    cited += 1
                    where = f"{doc.name}: {m.group(0)}"
                    try:
                        obj = _resolve(m.group(0).rstrip("("))
                    except (AttributeError, ImportError):
                        broken.append(where)
                        continue
                    if m.group(1) and not callable(obj):
                        broken.append(where)
        assert cited > 50
        assert not broken, f"docs cite paths that do not resolve: {broken}"


def _subcommand_flags():
    """Every option string of each ``repro <sub>`` parser."""
    import argparse

    from repro.cli import build_parser

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {opt for action in parser._actions
                   for opt in action.option_strings}
            for name, parser in sub.choices.items()}


def _cited_flags(text, default_cmd, commands):
    """``(command, --flag)`` pairs a doc cites for a ``repro`` subcommand.

    A flag belongs to the last ``repro <command>`` named before it on
    its line, or to ``default_cmd`` when the line names none; flags of
    anything that is not a subcommand are skipped.  The lookbehind skips
    link anchors such as ``#chaos--graceful``.
    """
    token = re.compile(r"repro (\w+)|(?<![\w#-])--([a-z][a-z0-9-]*)")
    for line in text.splitlines():
        cmd = default_cmd
        for m in token.finditer(line):
            if m.group(1):
                cmd = m.group(1)
            elif cmd in commands:
                yield cmd, f"--{m.group(2)}"


class TestServing:
    @staticmethod
    def _config_rows():
        serving = (ROOT / "docs" / "SERVING.md").read_text()
        section = serving.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        return [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines()
            if line.startswith("| `")
        ]

    def test_config_table_matches_serve_config(self):
        """One row per ServeConfig field, in order, with its default."""
        import ast
        import dataclasses

        from repro.serve import ServeConfig

        rows = self._config_rows()
        fields = dataclasses.fields(ServeConfig)
        assert [r[0].strip("`") for r in rows] == [f.name for f in fields]
        for row, f in zip(rows, fields):
            assert ast.literal_eval(row[1].strip("`")) == f.default, f.name

    def test_cited_flags_exist(self):
        """Every ``repro <sub> ... --flag`` in README.md or docs/*.md is an
        option of that subcommand's parser."""
        flags = _subcommand_flags()
        readme = (ROOT / "README.md").read_text()
        cited = [
            *_cited_flags(readme, None, flags),
            # README's serving section cites flags without the command
            *_cited_flags(
                readme.split("## Online serving", 1)[1].split("\n## ", 1)[0],
                "serve", flags,
            ),
        ]
        for doc in sorted((ROOT / "docs").glob("*.md")):
            # SERVING.md cites serve flags without the command
            default = "serve" if doc.name == "SERVING.md" else None
            cited += _cited_flags(doc.read_text(), default, flags)
        assert sum(cmd == "serve" for cmd, _ in cited) > 15
        assert {cmd for cmd, _ in cited} >= {"serve", "autotune", "perf"}
        missing = sorted({(cmd, flag) for cmd, flag in cited
                          if flag not in flags[cmd]})
        assert not missing, f"docs cite removed repro flags: {missing}"


def _every_family_run(monkeypatch):
    """One small gateway run that writes every ``serve/`` metric.

    A sick cluster faults and fails requests, is quarantined, probed and
    recovers; bulk requests are shed by class and by burn; a tight
    replica budget promotes, hits, re-stages and demotes; warming one
    class leaves the other cold.  Returns the run's registry and report.
    """
    import asyncio

    from repro.faults.plan import FaultPlan
    from repro.obs import collecting
    from repro.serve import DegradePolicy, Gateway, HealthPolicy, ServeConfig
    from repro.serve import placement

    from test_serve import fast_requests

    monkeypatch.setattr(placement, "REPLICA_BUDGET_BYTES", 13 << 10)
    monkeypatch.setattr(placement, "PROMOTE_AFTER", 1)
    monkeypatch.setattr(placement, "MAX_REPLICAS", 2)
    requests = fast_requests(n=96, rate=150_000, seed=0)
    config = ServeConfig(
        policy="least_loaded", queue_cap=8, max_redispatch=0,
        degrade=DegradePolicy(health=HealthPolicy(fault_threshold=1,
                                                  cooldown_s=2e-4)),
        faults=FaultPlan(seed=0, bitflip_rate=0.02, max_kernel_retries=0),
        cluster_fault_scale=(1.0, 0.0, 0.0, 0.0), replicate_b="adaptive",
    )

    async def drive():
        gw = Gateway(config)
        gw.warm(requests[:1])
        await gw.submit_many(requests)
        await gw.close()
        return gw.report()

    with collecting() as reg:
        report = asyncio.run(drive())
    return reg, report


class TestObservability:
    @staticmethod
    def _documented_serve_metrics():
        """Full names from OBSERVABILITY.md's ``serve/`` rows: the row's
        prefix joined to each backticked name in its description (those
        rows backtick metric names only)."""
        text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
        names = set()
        for line in text.splitlines():
            if not line.startswith("| `serve/"):
                continue
            prefix, _source, desc = line.strip("|").split("|")[:3]
            prefix = re.search(r"`([^`]+)`", prefix).group(1)
            names |= {prefix + n for n in re.findall(r"`([^`]+)`", desc)}
        return names

    def test_serve_metric_rows_match_serve_metrics(self, monkeypatch):
        """The table documents exactly the ``serve/`` metrics that exist:
        every one ``serve_metrics`` derives, plus the two live gauges."""
        from repro.obs import collecting
        from repro.serve.spans import serve_metrics

        reg, report = _every_family_run(monkeypatch)
        live = {"serve/queue/depth", "serve/gateway/outstanding"}
        assert set(reg.names("serve/")) == self._documented_serve_metrics()
        with collecting() as derived:
            serve_metrics(report)
        assert set(derived.names("serve/")) == set(reg.names("serve/")) - live

    def test_serve_metrics_written_only_from_the_report(self):
        """No ``serve/`` counter, histogram or distribution is kept live."""
        call = re.compile(r'\.(counter|histogram|distribution)\(f?"serve/')
        writers = {
            path.relative_to(ROOT / "src" / "repro").as_posix()
            for path in (ROOT / "src" / "repro").rglob("*.py")
            if call.search(path.read_text())
        }
        assert writers <= {"serve/spans.py"}
