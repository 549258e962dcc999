"""Bidirectional grid network-flow instances with prioritized balance constraints.

Nodes sit on a rows x cols lattice; every adjacent pair is joined by two opposed
directed edges. The top row supplies one unit per node and the bottom row demands
one unit per node. Flow balance at demand and interior nodes forms the
high-priority block; balance at the supply nodes, whose targets can be inflated
by kappa to make the instance infeasible, forms the low-priority block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import _require_integer, _require_real
from .problem import ProblemData, _frozen_triplets, _refuse_beyond_memory, _Triplets

__all__ = ["GridSpec", "build_instance", "grid_incidence"]


@dataclass(frozen=True)
class GridSpec:
    """Grid shape plus instance parameters.

    ``kappa`` is added to every supply-row balance target; kappa = 0 keeps the
    instance feasible. Q = q_scale * I and c = c_scale * ones.
    """

    rows: int
    cols: int
    kappa: float = 0.0
    q_scale: float = 1.0
    c_scale: float = 0.1

    def __post_init__(self) -> None:
        _require_integer(self, ("rows", "cols"))
        _require_real(self, ("kappa", "q_scale", "c_scale"))
        if self.rows < 2:
            raise ValueError(f"rows must be >= 2 (supply and demand rows), got {self.rows}")
        if self.cols < 1:
            raise ValueError(f"cols must be >= 1, got {self.cols}")
        if not 0 <= self.kappa < np.inf:
            raise ValueError(f"kappa must be finite and >= 0, got {self.kappa}")
        if not 0 < self.q_scale < np.inf:
            raise ValueError(f"q_scale must be positive and finite, got {self.q_scale}")
        if not np.isfinite(self.c_scale):
            raise ValueError(f"c_scale must be finite, got {self.c_scale}")


def _incidence(rows: int, cols: int) -> _Triplets:
    """The node-edge incidence matrix of the bidirectional grid, as triplets.

    Node (r, c) is row r * cols + c. Edges are ordered rightward, leftward,
    downward, upward, each group in row-major order of the tail's grid
    position. A grid whose dense A could not fit in memory is refused before
    anything is built.
    """
    m, n = rows * cols, 2 * (rows * (cols - 1) + (rows - 1) * cols)
    _refuse_beyond_memory(m, n, "A")
    node = np.arange(m).reshape(rows, cols)
    pairs = (
        (node[:, :-1], node[:, 1:]),  # rightward
        (node[:, 1:], node[:, :-1]),  # leftward
        (node[:-1], node[1:]),  # downward
        (node[1:], node[:-1]),  # upward
    )
    tail, head = (np.concatenate([pair[i].ravel() for pair in pairs]) for i in (0, 1))
    at = np.concatenate((head, tail))  # +1 at the head, -1 at the tail
    edge = np.tile(np.arange(n), 2)
    order = np.lexsort((edge, at))  # row-major
    return _frozen_triplets(at[order], edge[order], np.repeat([1.0, -1.0], n)[order], (m, n))


def grid_incidence(rows: int, cols: int) -> tuple[np.ndarray, dict[tuple[int, int], int]]:
    """Dense node-edge incidence matrix of the bidirectional grid.

    Edge columns hold +1 at the head node and -1 at the tail, ordered rightward,
    leftward, downward, upward, each group in row-major order of the tail's grid
    position. Returns (A, node_index) with node_index mapping (row, col) to the
    node's matrix row. A grid whose A cannot fit in memory is refused before
    anything is built.
    """
    if rows * cols < 2:
        raise ValueError("grid needs at least two nodes")
    A = _incidence(rows, cols).dense()
    node = {(r, c): r * cols + c for r in range(rows) for c in range(cols)}
    return A, node


def build_instance(spec: GridSpec) -> tuple[ProblemData, dict]:
    """Assemble the problem and a metadata block describing the priority split.

    The balance targets are -1 at supply nodes and +1 at demand nodes; the
    low-priority targets get +kappa each. Row order inside each block follows
    node row-major order, so the supply block is exactly the first ``cols``
    incidence rows. The instance gets the incidence matrix as its triplets
    (2 per edge), with no dense array; a grid whose dense A could not fit in
    memory is still refused, as ``grid_incidence`` refuses it, before anything
    is built.
    """
    A = _incidence(spec.rows, spec.cols)
    m, n = A.shape
    b = np.zeros(m)
    b[:spec.cols] = -1.0
    b[m - spec.cols:] = 1.0
    p = ProblemData(
        Q=np.full(n, spec.q_scale),  # the diagonal of q_scale I
        c=spec.c_scale * np.ones(n),
        A1=A.block(spec.cols, m),
        b1=b[spec.cols:],
        A2=A.block(0, spec.cols),
        b2=b[:spec.cols] + spec.kappa,
    )
    meta = {
        "generator": "grid-network",
        "rows": spec.rows,
        "cols": spec.cols,
        "kappa": spec.kappa,
        "q_scale": spec.q_scale,
        "c_scale": spec.c_scale,
        "supply_nodes": list(range(spec.cols)),
        "demand_nodes": list(range(m - spec.cols, m)),
        "priority_partition": {
            "high": "balance rows of demand and interior nodes (node indices cols..m-1)",
            "low": "balance rows of supply nodes (node indices 0..cols-1)",
        },
    }
    return p, meta
