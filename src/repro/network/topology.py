"""Topology base class.

A topology knows how many endpoints (compute nodes) it connects and the hop
count between any two of them.  Concrete classes: :class:`TorusTopology`
(TofuD) and :class:`FatTreeTopology` (OmniPath).
"""

from __future__ import annotations

import abc

from repro.util.errors import ConfigurationError


class Topology(abc.ABC):
    """Abstract interconnect topology over ``n_nodes`` endpoints."""

    def __init__(self, n_nodes: int):
        if n_nodes <= 0:
            raise ConfigurationError("topology needs at least one node")
        self.n_nodes = n_nodes

    def check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ConfigurationError(
                f"node {node} out of range 0..{self.n_nodes - 1}"
            )

    @abc.abstractmethod
    def hops(self, a: int, b: int) -> int:
        """Switch/router hops on the route from node ``a`` to node ``b``."""

    @abc.abstractmethod
    def neighbors(self, node: int) -> list[int]:
        """Directly connected endpoints."""

    @property
    @abc.abstractmethod
    def diameter(self) -> int:
        """Maximum hop count between any pair."""

    def average_hops(self) -> float:
        """Mean hops over all ordered pairs (excluding self-pairs)."""
        if self.n_nodes == 1:
            return 0.0
        total = 0
        for a in range(self.n_nodes):
            for b in range(self.n_nodes):
                if a != b:
                    total += self.hops(a, b)
        return total / (self.n_nodes * (self.n_nodes - 1))
