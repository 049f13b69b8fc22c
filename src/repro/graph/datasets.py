"""Scaled-down analogues of the paper's evaluation datasets (Table I).

The paper evaluates on four real graphs (soc-LiveJournal1, com-Orkut,
Twitter, Yahoo) with 68M--6.6B edges, and four synthetic RMAT graphs
(RMAT-26..29) with 1.1B--8.6B edges.  A pure-Python reproduction cannot
touch graphs of that size in the available time budget, so each dataset is
replaced by a *structural analogue* at a much smaller scale:

* the **RMAT-n** analogues use the same generator family and the same
  ``|E| = 16·|V|`` density, just at smaller scale parameters, preserving
  the scale-free structure the paper credits for good multicore scaling;
* **twitter-like** is a dense scale-free graph (Barabási–Albert core plus
  RMAT noise) with average degree ≈ 58 and a heavy hub tail, matching the
  Twitter row of Table I in shape;
* **yahoo-like** is sparse (average degree ≈ 18) with extreme hubs via a
  power-law (Chung–Lu) construction — the skew that makes Yahoo scale
  poorly beyond 16 cores in Figures 3/4;
* **livejournal-like** and **orkut-like** are mid-size social-network
  analogues built from Watts–Strogatz + Barabási–Albert mixtures with high
  clustering (plenty of triangles).

Every entry records the paper's original statistics so the Table I
benchmark prints paper-vs-measured rows side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph.generators import (
    barabasi_albert,
    power_law_degree_graph,
    rmat,
    watts_strogatz,
)

__all__ = ["DatasetSpec", "DATASETS", "load_dataset", "dataset_names", "PAPER_TABLE1"]


#: The original Table I rows (paper values), for paper-vs-measured reporting.
PAPER_TABLE1: dict[str, dict[str, object]] = {
    "livejournal": {
        "Graph": "soc-LiveJournal1",
        "Nodes": 4_800_000,
        "Edges": 68_000_000,
        "Triangles": 285_730_264,
        "AvDeg": 17.8,
        "STD": 52,
        "MaxDeg": 20_334,
    },
    "orkut": {
        "Graph": "com-Orkut",
        "Nodes": 3_100_000,
        "Edges": 117_200_000,
        "Triangles": 627_584_181,
        "AvDeg": 76.0,
        "STD": 155,
        "MaxDeg": 33_313,
    },
    "twitter": {
        "Graph": "Twitter",
        "Nodes": 61_600_000,
        "Edges": 1_500_000_000,
        "Triangles": 34_824_916_864,
        "AvDeg": 57.7,
        "STD": 402,
        "MaxDeg": 2_997_487,
    },
    "yahoo": {
        "Graph": "Yahoo",
        "Nodes": 1_400_000_000,
        "Edges": 6_600_000_000,
        "Triangles": 85_782_928_684,
        "AvDeg": 17.9,
        "STD": 279,
        "MaxDeg": 7_637_656,
    },
    "rmat-26": {
        "Graph": "RMAT-26",
        "Nodes": 67_100_000,
        "Edges": 1_100_000_000,
        "Triangles": 51_559_452_522,
        "AvDeg": 61.2,
        "STD": 632,
        "MaxDeg": 430_269,
    },
    "rmat-27": {
        "Graph": "RMAT-27",
        "Nodes": 134_200_000,
        "Edges": 2_100_000_000,
        "Triangles": 114_007_006_286,
        "AvDeg": 63.6,
        "STD": 601,
        "MaxDeg": 676_199,
    },
    "rmat-28": {
        "Graph": "RMAT-28",
        "Nodes": 268_400_000,
        "Edges": 4_300_000_000,
        "Triangles": 251_913_686_661,
        "AvDeg": 66.0,
        "STD": 660,
        "MaxDeg": 1_062_289,
    },
    "rmat-29": {
        "Graph": "RMAT-29",
        "Nodes": 536_900_000,
        "Edges": 8_600_000_000,
        "Triangles": 556_443_109_053,
        "AvDeg": 69.0,
        "STD": 782,
        "MaxDeg": 1_665_635,
    },
}


@dataclass(frozen=True)
class DatasetSpec:
    """A named analogue dataset: a generator plus its paper counterpart."""

    name: str
    paper_name: str
    description: str
    builder: Callable[[int, float], EdgeList]
    default_scale: float = 1.0

    def build(self, seed: int = 0, scale: float | None = None) -> CSRGraph:
        """Generate the analogue graph as an undirected CSR graph.

        ``scale`` multiplies the default size (0.25 builds a quarter-size
        variant for quick tests; benchmarks use 1.0).
        """
        effective = self.default_scale * (scale if scale is not None else 1.0)
        edges = self.builder(seed, effective)
        return CSRGraph.from_edgelist(edges, directed=False, symmetrize=True)


def _scaled(value: int, scale: float, minimum: int = 16) -> int:
    return max(int(round(value * scale)), minimum)


def _build_livejournal(seed: int, scale: float) -> EdgeList:
    # social graph with strong community clustering; avg degree ~18
    n = _scaled(6000, scale)
    ws = watts_strogatz(n, k=10, p=0.08, seed=seed)
    ba = barabasi_albert(n, attach=4, seed=seed + 1)
    combined = np.vstack([ws.edges, ba.edges])
    return EdgeList(combined, n).canonical_undirected()


def _build_orkut(seed: int, scale: float) -> EdgeList:
    # denser social graph; avg degree ~76 in the paper, so a denser mix here
    n = _scaled(3000, scale)
    ws = watts_strogatz(n, k=24, p=0.05, seed=seed)
    ba = barabasi_albert(n, attach=12, seed=seed + 1)
    combined = np.vstack([ws.edges, ba.edges])
    return EdgeList(combined, n).canonical_undirected()


def _build_twitter(seed: int, scale: float) -> EdgeList:
    # dense scale-free graph with pronounced hubs (paper avg degree 57.7)
    scale_param = 12 if scale >= 1.0 else 11
    base = rmat(scale_param, edge_factor=24, seed=seed)
    ba = barabasi_albert(1 << scale_param, attach=6, seed=seed + 1)
    combined = np.vstack([base.edges, ba.edges])
    return EdgeList(combined, 1 << scale_param).canonical_undirected()


def _build_yahoo(seed: int, scale: float) -> EdgeList:
    # sparse (avg degree ~18) with extreme hubs: web-graph style skew
    n = _scaled(16000, scale)
    body = power_law_degree_graph(
        n, exponent=2.05, min_degree=4, max_degree=max(n // 8, 32), seed=seed
    )
    # add a sparse backbone so the graph is not dominated by isolated vertices
    backbone = watts_strogatz(n, k=4, p=0.02, seed=seed + 1)
    combined = np.vstack([body.edges, backbone.edges])
    return EdgeList(combined, n).canonical_undirected()


def _make_rmat_builder(scale_param: int) -> Callable[[int, float], EdgeList]:
    def build(seed: int, scale: float) -> EdgeList:
        effective_scale = scale_param if scale >= 1.0 else max(scale_param - 1, 4)
        return rmat(effective_scale, edge_factor=16, seed=seed)

    return build


#: Registry of all analogue datasets, keyed by short name.
DATASETS: dict[str, DatasetSpec] = {
    "livejournal": DatasetSpec(
        name="livejournal",
        paper_name="soc-LiveJournal1",
        description="social graph analogue: Watts-Strogatz + Barabasi-Albert mixture",
        builder=_build_livejournal,
    ),
    "orkut": DatasetSpec(
        name="orkut",
        paper_name="com-Orkut",
        description="denser social graph analogue (higher average degree)",
        builder=_build_orkut,
    ),
    "twitter": DatasetSpec(
        name="twitter",
        paper_name="Twitter",
        description="dense scale-free analogue with pronounced hubs",
        builder=_build_twitter,
    ),
    "yahoo": DatasetSpec(
        name="yahoo",
        paper_name="Yahoo",
        description="sparse web-graph analogue with extreme degree skew",
        builder=_build_yahoo,
    ),
    "rmat-10": DatasetSpec(
        name="rmat-10",
        paper_name="RMAT-26 (scaled)",
        description="RMAT analogue of RMAT-26 at scale 10",
        builder=_make_rmat_builder(10),
    ),
    "rmat-11": DatasetSpec(
        name="rmat-11",
        paper_name="RMAT-27 (scaled)",
        description="RMAT analogue of RMAT-27 at scale 11",
        builder=_make_rmat_builder(11),
    ),
    "rmat-12": DatasetSpec(
        name="rmat-12",
        paper_name="RMAT-28 (scaled)",
        description="RMAT analogue of RMAT-28 at scale 12",
        builder=_make_rmat_builder(12),
    ),
    "rmat-13": DatasetSpec(
        name="rmat-13",
        paper_name="RMAT-29 (scaled)",
        description="RMAT analogue of RMAT-29 at scale 13",
        builder=_make_rmat_builder(13),
    ),
}

#: Mapping from analogue name to the paper dataset it stands in for.
ANALOGUE_OF: dict[str, str] = {
    "livejournal": "livejournal",
    "orkut": "orkut",
    "twitter": "twitter",
    "yahoo": "yahoo",
    "rmat-10": "rmat-26",
    "rmat-11": "rmat-27",
    "rmat-12": "rmat-28",
    "rmat-13": "rmat-29",
}


def dataset_names() -> list[str]:
    """Names of all registered analogue datasets."""
    return list(DATASETS.keys())


def load_dataset(name: str, seed: int = 0, scale: float | None = None) -> CSRGraph:
    """Build the analogue dataset ``name`` as an undirected CSR graph."""
    if name not in DATASETS:
        raise KeyError(
            f"unknown dataset {name!r}; available: {', '.join(dataset_names())}"
        )
    return DATASETS[name].build(seed=seed, scale=scale)
