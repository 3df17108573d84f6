"""Extension experiment: the introduction's motivating workloads, end to end.

The paper motivates irregular GEMM with three application domains
(Section I): K-means distance computation, im2col-lowered CNN layers, and
FEM operator batches.  The evaluation section never returns to them — it
sweeps synthetic shapes.  This experiment closes that loop: it takes the
*actual* GEMM shapes those workloads produce and measures the modeled
ftIMM-vs-TGEMM benefit on each, checking the narrative:

* every irregular-classified workload GEMM benefits from ftIMM;
* early CNN layers (most irregular) benefit more than deep ones;
* the tuner sends wide-N deep layers to the regular TGEMM path, where
  TGEMM is genuinely good (>50% of peak) — the paper's premise.
"""

from __future__ import annotations

from ..analysis.tables import Claim, ExperimentResult, Series
from ..core.ftimm import ftimm_gemm, tgemm_gemm
from ..core.shapes import GemmShape
from ..hw.config import MachineConfig, default_machine
from ..workloads.convnets import RESNET18_LAYERS, VGG16_LAYERS
from ..workloads.fem import STANDARD_OPERATORS
from ..workloads.kmeans import kmeans_gemm_shape
from ..workloads.transformer import STANDARD_CONFIGS

#: (dataset-ish label, samples, features, clusters)
KMEANS_CONFIGS = [
    ("mnist-pca", 60_000, 50, 10),
    ("cifar-feat", 50_000, 64, 20),
    ("census", 2_458_285, 68, 32),
]


def _speedup(shape: GemmShape, machine: MachineConfig) -> float:
    ft = ftimm_gemm(shape.m, shape.n, shape.k, machine=machine, timing="analytic")
    tg = tgemm_gemm(shape.m, shape.n, shape.k, machine=machine, timing="analytic")
    return ft.seconds and tg.seconds / ft.seconds


def run(machine: MachineConfig | None = None) -> list[ExperimentResult]:
    machine = machine or default_machine()
    results = []

    # --- K-means ----------------------------------------------------------
    labels, speeds = [], []
    for name, samples, feats, clusters in KMEANS_CONFIGS:
        shape = kmeans_gemm_shape(samples, feats, clusters)
        labels.append(name)
        speeds.append(_speedup(shape, machine))
    results.append(
        ExperimentResult(
            exp_id="ext_workloads_kmeans",
            title="K-means distance GEMMs (intro workload)",
            x_label="dataset",
            y_label="ftIMM speedup vs TGEMM",
            series=[Series("speedup", labels, speeds)],
            claims=[
                Claim(
                    name="every dataset benefits",
                    paper="(extension) K-means GEMMs are type 1",
                    measured=f"min {min(speeds):.2f}x, max {max(speeds):.2f}x",
                    holds=min(speeds) > 1.5,
                )
            ],
        )
    )

    # --- CNN layers ---------------------------------------------------------
    for net, layers in (("vgg16", VGG16_LAYERS), ("resnet18", RESNET18_LAYERS)):
        names, speeds, kinds = [], [], []
        for layer in layers:
            shape = layer.gemm_shape(batch=1)
            names.append(layer.name)
            kinds.append(shape.classify().value)
            if shape.n <= 96:
                speeds.append(_speedup(shape, machine))
            else:
                speeds.append(1.0)  # regular: tuner keeps TGEMM
        irregular = [s for s, kd in zip(speeds, kinds) if kd != "regular"]
        first_irregular = next(
            s for s, kd in zip(speeds, kinds) if kd != "regular"
        )
        results.append(
            ExperimentResult(
                exp_id=f"ext_workloads_{net}",
                title=f"{net} im2col GEMMs (intro workload)",
                x_label="layer",
                y_label="ftIMM speedup vs TGEMM (1.0 = regular/TGEMM path)",
                series=[Series("speedup", names, speeds)],
                claims=[
                    Claim(
                        name="irregular layers all benefit",
                        paper="(extension) early layers are type 1",
                        measured=f"min {min(irregular):.2f}x over "
                                 f"{len(irregular)} irregular layers",
                        holds=min(irregular) > 1.5,
                    ),
                    Claim(
                        name="first layer benefits strongly",
                        paper="(extension) the paper's canonical case",
                        measured=f"{first_irregular:.2f}x",
                        holds=first_irregular > 2.0,
                    ),
                ],
            )
        )

    # --- transformer attention (post-2022 workload, same taxonomy) --------
    names, speeds, kinds = [], [], []
    for cfg in STANDARD_CONFIGS:
        shape = cfg.gemm_shapes()["head_projection"]
        names.append(f"{cfg.name}/proj")
        kinds.append(shape.classify().value)
        speeds.append(_speedup(shape, machine))
        ctx = cfg.gemm_shapes()["context"]
        if ctx.n <= 96 and ctx.classify().value != "regular":
            names.append(f"{cfg.name}/ctx")
            kinds.append(ctx.classify().value)
            speeds.append(_speedup(ctx, machine))
    results.append(
        ExperimentResult(
            exp_id="ext_workloads_attention",
            title="transformer attention GEMMs (post-paper workload)",
            x_label="GEMM",
            y_label="ftIMM speedup vs TGEMM",
            series=[Series("speedup", names, speeds)],
            claims=[
                Claim(
                    name="head-dim-64 GEMMs benefit",
                    paper="(extension) attention fits the paper's taxonomy",
                    measured=f"min {min(speeds):.2f}x over {len(speeds)} GEMMs",
                    holds=min(speeds) > 1.5,
                )
            ],
        )
    )

    # --- FEM + the regular-shape premise -----------------------------------
    names, speeds = [], []
    for op in STANDARD_OPERATORS:
        shape = op.gemm_shape()
        names.append(op.name)
        speeds.append(_speedup(shape, machine))
    reg = tgemm_gemm(4096, 4096, 4096, machine=machine, timing="analytic")
    irr = tgemm_gemm(20480, 32, 20480, machine=machine, timing="analytic")
    results.append(
        ExperimentResult(
            exp_id="ext_workloads_fem",
            title="FEM operator batches + the regular-shape premise",
            x_label="operator",
            y_label="ftIMM speedup vs TGEMM",
            series=[Series("speedup", names, speeds)],
            claims=[
                Claim(
                    name="FEM batches benefit",
                    paper="(extension) stacked element ops are type 1",
                    measured=f"min {min(speeds):.2f}x",
                    holds=min(speeds) > 1.5,
                ),
                Claim(
                    name="TGEMM's regular-vs-irregular gap",
                    paper="paper's premise: traditional GEMM is built for "
                          "large regular shapes, collapses on irregular",
                    measured=(
                        f"4096^3: {100 * reg.efficiency:.0f}% vs "
                        f"20480x32x20480: {100 * irr.efficiency:.0f}% of peak"
                    ),
                    holds=reg.efficiency > 5 * irr.efficiency
                    and reg.efficiency > 0.3,
                ),
            ],
        )
    )
    return results


def main() -> None:
    for result in run():
        print(result.render(chart=True))
        print()


if __name__ == "__main__":
    main()
