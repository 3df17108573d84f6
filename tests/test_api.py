"""Public API surface and error hierarchy."""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import (
    AllocationError,
    CapacityError,
    ConfigError,
    IsaError,
    KernelError,
    PlanError,
    ReproError,
    ScheduleError,
    ShapeError,
    SimulationError,
)

#: the packages with an export list: the GEMM library, then serving,
#: observability and analysis; every other module is imported by its path
EXPORTING = ("repro", "repro.serve", "repro.obs", "repro.analysis")


def _defines_all(path: Path) -> bool:
    return re.search(r"^__all__\b", path.read_text(), re.M) is not None


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            AllocationError, CapacityError, ConfigError, IsaError,
            KernelError, PlanError, ScheduleError, ShapeError,
            SimulationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_library_failures_catchable_with_one_clause(self):
        with pytest.raises(ReproError):
            repro.ftimm_gemm(0, 1, 1)
        with pytest.raises(ReproError):
            repro.generate_kernel(6, 200, 64)


class TestFacade:
    def test_each_name_exported_once(self):
        # only the four exporting packages have an ``__all__``; each list
        # resolves, names nothing twice and shares no name with another
        root = Path(repro.__file__).parent
        defining = {
            ".".join(("repro",) + path.relative_to(root).with_suffix("")
                     .parts).removesuffix(".__init__")
            for path in root.rglob("*.py")
            if _defines_all(path)
        }
        assert defining == set(EXPORTING)
        seen: dict[str, str] = {}
        for name in EXPORTING:
            module = importlib.import_module(name)
            exports = module.__all__
            assert len(set(exports)) == len(exports), name
            for attr in exports:
                assert getattr(module, attr) is not None, f"{name}.{attr}"
                assert attr not in seen, (attr, seen.get(attr), name)
                seen[attr] = name

    def test_top_level_lists_only_the_gemm_library(self):
        # serving, observability and analysis are exported by their own
        # packages, never a second time from ``repro``
        for name in ("repro.serve", "repro.obs", "repro.analysis"):
            overlap = set(repro.__all__) & set(
                importlib.import_module(name).__all__
            )
            assert not overlap, (name, sorted(overlap))

    def test_serve_is_the_package(self):
        import repro.serve

        assert repro.serve is sys.modules["repro.serve"]
        assert repro.serve.ServeConfig is not None

    @pytest.mark.parametrize("module, name", [
        ("repro.parallel", "WorkerPool"),
        ("repro.parallel", "worker_pool"),
        ("repro.parallel", "active_pool"),
        ("repro.core.tuner", "tune_many"),
        ("repro.core.batched", "batched_gemm"),
        ("repro.core.batched", "BatchedGemmResult"),
        ("repro.parallel", "POOL_MIN_UNITS"),
        ("repro.parallel", "parallel_map"),
        ("repro.hw.memory", "make_core_spaces"),
        ("repro.core.autotune", "_score_unit"),
        ("repro.core.autotune", "VALIDATE_OP_LIMIT"),
        ("repro.kernels", "KernelDiskCache"),
        ("repro.kernels", "kernel_from_dict"),
        ("repro.kernels", "GENERATOR_VERSION"),
        ("repro.serve.server", "expected_stack_hints"),
        ("repro.serve.scheduler", "StackHints"),
    ])
    def test_uncalled_exports_deleted(self, module, name):
        if importlib.util.find_spec(module) is not None:
            assert not hasattr(importlib.import_module(module), name)
        assert name not in repro.__all__

    @pytest.mark.parametrize("module, name, kwargs, knob", [
        ("repro.core.batched", "grouped_gemm",
         dict(a_blocks=None, b=None, c_blocks=None), "faults"),
        ("repro.kernels.registry", "KernelRegistry", dict(core=None), "disk"),
        ("repro.serve.degrade", "PriorityClass", dict(name="x"), "weight"),
        ("repro.serve.loadgen", "make_requests",
         dict(mix="fem", rate_rps=1.0, n_requests=1), "burst_factor"),
        ("repro.serve.loadgen", "make_requests",
         dict(mix="fem", rate_rps=1.0, n_requests=1), "burst_len"),
    ])
    def test_uncalled_knobs_deleted(self, module, name, kwargs, knob):
        target = getattr(importlib.import_module(module), name)
        with pytest.raises(TypeError, match=knob):
            target(**kwargs, **{knob: 1})

    def test_version(self):
        assert repro.__version__

    def test_classify(self):
        assert repro.classify(2**20, 32, 32) == "type1"
        assert repro.classify(32, 32, 2**20) == "type2"
        assert repro.classify(20480, 32, 20480) == "type3"
        assert repro.classify(512, 512, 512) == "regular"

    def test_generate_kernel_cached(self):
        a = repro.generate_kernel(6, 64, 128)
        b = repro.generate_kernel(6, 64, 128)
        assert a is b

    def test_default_machine_frozen(self):
        machine = repro.default_machine()
        with pytest.raises(Exception):
            machine.cluster.n_cores = 4  # frozen dataclass

    def test_gemm_shape_exported(self):
        shape = repro.GemmShape(4, 5, 6)
        assert shape.flops == 240

    def test_end_to_end_through_facade(self):
        a = np.random.default_rng(0).standard_normal((256, 32)).astype(np.float32)
        b = np.random.default_rng(1).standard_normal((32, 16)).astype(np.float32)
        c = np.zeros((256, 16), np.float32)
        result = repro.gemm(256, 16, 32, a=a, b=b, c=c)
        np.testing.assert_allclose(c, a @ b, rtol=1e-4, atol=1e-4)
        assert result.gflops > 0

    def test_autotune_through_facade(self):
        result = repro.autotune(
            repro.GemmShape(8192, 32, 256), repro.default_machine().cluster
        )
        assert result.improvement >= 0.999

    def test_multi_cluster_through_facade(self):
        result = repro.multi_cluster_gemm(2**18, 32, 32, n_clusters=2)
        assert result.n_clusters == 2

    def test_grouped_gemm_through_facade(self):
        result = repro.grouped_gemm(
            None, None, None, m_blocks=[128, 128], n=16, k=8,
            timing="analytic",
        )
        assert result.n_items == 2
