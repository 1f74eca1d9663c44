"""Exact toolkit for tree independence number work on small graphs: bitmask
graphs and exact stability number, induced-pattern search (S_{t,t,t},
K_{t,t}, K_gamma^2, line graphs of subdivided walls), tree-decomposition
validation, exact tree independence number, assembly of a decomposition from
a balanced-separator oracle, and maximum weight stable sets by brute force
or by dynamic programming over a decomposition. Answers are exact or an
explicit refusal."""

__version__ = "0.1.0"

from .graphs import (  # noqa: F401
    Graph,
    WeightFn,
    alpha_exact,
    closed_nbhd,
    components,
    emit_graph,
    generate,
    line_graph,
    max_stable_set,
    parse_graph,
    subdivide,
)
