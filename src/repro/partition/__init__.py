"""Graph partitioning: the paper's 2D edge partitioning (1D is its ``1 x P`` case)."""

from repro.partition.base import BlockDistribution
from repro.partition.one_d import OneDPartition
from repro.partition.two_d import TwoDPartition
from repro.partition.balance import balance_report, BalanceReport
from repro.partition.degree_aware import degree_aware_relabeling
from repro.partition.permutation import VertexRelabeling, relabel_graph

__all__ = [
    "degree_aware_relabeling",
    "VertexRelabeling",
    "relabel_graph",
    "BlockDistribution",
    "OneDPartition",
    "TwoDPartition",
    "balance_report",
    "BalanceReport",
]
