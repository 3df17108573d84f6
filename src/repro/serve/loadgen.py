"""Open-loop load generation: arrival processes and workload shape mixes.

The serving layer is exercised with *open-loop* request streams — arrival
times are drawn up front from the seed and do not react to server state,
so offered load is an independent variable and the same seed + config
always replays the identical stream.

Shape mixes are drawn from the paper's motivating workload generators in
:mod:`repro.workloads` rather than invented here:

* ``transformer`` — per-head projection and context GEMMs of small
  decode-sized :class:`~repro.workloads.transformer.AttentionConfig`\\ s
  (type-1 tall-and-skinny shapes, tight SLOs);
* ``fem``         — chunked :class:`~repro.workloads.fem.FemOperator`
  element batches (tiny N/K, shared operator B — the shared-B
  coalescing case);
* ``convnet``     — im2col :class:`~repro.workloads.convnets.ConvLayer`
  shapes at small image sizes (looser SLOs);
* ``mixed``       — all three, weighted;
* ``overload``    — the reference overload mix used by the CI claims
  gate: heterogeneous SLOs so deadline-aware scheduling has something
  to exploit.

Every request gets its **own copy** of the class's B variant — the
deserialized-from-a-stream case — so shared-B detection must go through
content digests, not object identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.shapes import GemmShape
from ..errors import PlanError
from ..workloads.convnets import ConvLayer
from ..workloads.fem import FemOperator
from ..workloads.transformer import AttentionConfig
from .request import GemmRequest

#: bursty arrivals: a hot phase runs at this multiple of the mean rate
BURST_FACTOR = 4.0
#: bursty arrivals: requests per hot or cold phase
BURST_LEN = 16


@dataclass(frozen=True)
class ShapeClass:
    """One request class of a mix."""

    name: str
    shape: GemmShape
    weight: float = 1.0
    slo_s: float | None = None     # relative deadline; None = no SLO
    n_b_variants: int = 1          # distinct B contents ("models") served
    #: explicit priority class ("interactive" / "bulk"); None lets the
    #: degradation policy classify by the request's deadline budget
    priority: str | None = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise PlanError(f"class {self.name}: weight must be > 0")
        if self.slo_s is not None and self.slo_s <= 0:
            raise PlanError(f"class {self.name}: slo_s must be > 0")
        if self.n_b_variants < 1:
            raise PlanError(f"class {self.name}: n_b_variants must be >= 1")


def transformer_mix() -> list[ShapeClass]:
    """Decode-sized attention GEMMs (one small config, per-head shapes)."""
    cfg = AttentionConfig("serve-decode", d_model=256, n_heads=4, seq_len=16)
    shapes = cfg.gemm_shapes()
    return [
        ShapeClass("attn/head_proj", shapes["head_projection"],
                   weight=3.0, slo_s=2e-3, n_b_variants=2),
        ShapeClass("attn/context", shapes["context"],
                   weight=1.0, slo_s=2e-3, n_b_variants=2),
    ]


def fem_mix() -> list[ShapeClass]:
    """Chunked per-element operator applications (shared basis B)."""
    ops = [
        FemOperator("p1_tet_chunk", 512, 4, 4),
        FemOperator("p2_tet_chunk", 256, 10, 15),
        FemOperator("q1_hex_chunk", 128, 8, 24),
    ]
    return [
        ShapeClass(f"fem/{op.name}", op.gemm_shape(),
                   weight=1.0, slo_s=1e-3, n_b_variants=1)
        for op in ops
    ]


def convnet_mix() -> list[ShapeClass]:
    """im2col layers at small images (bulkier K, looser SLOs)."""
    layers = [
        ConvLayer("conv_mid", 64, 32, 14, 3, 1, 1),
        ConvLayer("conv_late", 128, 64, 7, 3, 1, 1),
    ]
    return [
        ShapeClass(f"conv/{layer.name}", layer.gemm_shape(batch=1),
                   weight=1.0, slo_s=8e-3, n_b_variants=2)
        for layer in layers
    ]


def mixed_mix() -> list[ShapeClass]:
    return transformer_mix() + fem_mix() + convnet_mix()


def overload_mix() -> list[ShapeClass]:
    """The CI reference mix: tight-SLO small GEMMs sharing the server
    with loose-SLO bulky ones, so EDF ordering has real work to do.

    The bulky classes are batched im2col layers (``batch=4``) — heavy
    enough that a moderate offered load saturates the four clusters,
    which is the regime the claims gate probes.
    """
    tight_op = FemOperator("q2_face_chunk", 256, 16, 16)
    decode = AttentionConfig(
        "serve-decode-lg", d_model=1024, n_heads=8, seq_len=16
    )
    heavy = ConvLayer("conv_bulk", 128, 64, 14, 3, 1, 1)
    return [
        # tight SLO, tiny compute: what EDF protects under overload
        ShapeClass(f"fem/{tight_op.name}", tight_op.gemm_shape(),
                   weight=3.0, slo_s=1.0e-3, n_b_variants=1),
        # shared-weight decode projection: staging B dominates a single
        # call, so coalescing on the B digest is where batching pays
        ShapeClass("attn/head_proj",
                   decode.gemm_shapes()["head_projection"],
                   weight=3.0, slo_s=2.0e-3, n_b_variants=1),
        # bulky loose-SLO im2col batches: what saturates the clusters
        ShapeClass(f"conv/{heavy.name}", heavy.gemm_shape(batch=4),
                   weight=1.0, slo_s=5e-2, n_b_variants=2),
    ]


MIXES = {
    "transformer": transformer_mix,
    "fem": fem_mix,
    "convnet": convnet_mix,
    "mixed": mixed_mix,
    "overload": overload_mix,
}


def get_mix(name: str) -> list[ShapeClass]:
    try:
        return MIXES[name]()
    except KeyError:
        raise PlanError(
            f"unknown mix {name!r} (have {', '.join(sorted(MIXES))})"
        ) from None


def _b_pools(
    classes: list[ShapeClass], seed: int
) -> list[list[np.ndarray]]:
    """Per-class pools of distinct B contents, derived from the seed."""
    pools = []
    for idx, cls in enumerate(classes):
        rng = np.random.default_rng([seed, 0xB, idx])
        pools.append([
            rng.standard_normal(
                (cls.shape.k, cls.shape.n)
            ).astype(np.float32)
            for _ in range(cls.n_b_variants)
        ])
    return pools


def make_requests(
    mix: list[ShapeClass] | str,
    *,
    rate_rps: float,
    n_requests: int,
    seed: int = 0,
    arrivals: str = "poisson",
) -> list[GemmRequest]:
    """Draw an open-loop request stream.

    ``arrivals="poisson"`` draws i.i.d. exponential gaps at ``rate_rps``;
    ``"bursty"`` alternates hot phases (rate x :data:`BURST_FACTOR`) and
    cold phases every :data:`BURST_LEN` requests, with the cold rate chosen
    so the long-run offered load is still ``rate_rps``.
    """
    classes = get_mix(mix) if isinstance(mix, str) else list(mix)
    if not classes:
        raise PlanError("empty shape mix")
    if rate_rps <= 0 or n_requests <= 0:
        raise PlanError("rate_rps and n_requests must be > 0")
    if arrivals not in ("poisson", "bursty"):
        raise PlanError(f"unknown arrival process {arrivals!r}")

    rng = np.random.default_rng([seed, 0xA])
    weights = np.asarray([c.weight for c in classes], dtype=np.float64)
    weights /= weights.sum()
    pools = _b_pools(classes, seed)

    # mean gap of (hot, cold) must average to 1/rate:
    # cold_rate = bf * rate / (2 bf - 1)
    hot_rate = BURST_FACTOR * rate_rps
    cold_rate = BURST_FACTOR * rate_rps / (2.0 * BURST_FACTOR - 1.0)

    requests = []
    t = 0.0
    for i in range(n_requests):
        if arrivals == "poisson":
            gap_rate = rate_rps
        else:
            gap_rate = hot_rate if (i // BURST_LEN) % 2 == 0 else cold_rate
        t += float(rng.exponential(1.0 / gap_rate))
        ci = int(rng.choice(len(classes), p=weights))
        cls = classes[ci]
        shape = cls.shape
        a = rng.standard_normal((shape.m, shape.k)).astype(np.float32)
        c = rng.standard_normal((shape.m, shape.n)).astype(np.float32)
        b = pools[ci][i % cls.n_b_variants].copy()  # fresh object, equal bits
        requests.append(
            GemmRequest(
                req_id=i,
                arrival_s=t,
                shape=shape,
                a=a,
                b=b,
                c=c,
                klass=cls.name,
                deadline_s=t + cls.slo_s if cls.slo_s is not None else None,
                priority=cls.priority,
            )
        )
    return requests
