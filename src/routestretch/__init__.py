"""Toolkit for the routing-table vs routing-path stretch tradeoff in
hierarchical routing: closed-form curves, graph and hierarchy builders,
a forwarding simulator, and slope estimation."""

__version__ = "0.1.0"
