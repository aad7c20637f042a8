"""The paper's theorems checked on every instance of a small size class.

The acceptance tests sample these classes at random; here each class is
generated whole, its size asserted against its closed form, and every
member checked: the cycle layout's k - 1 crossings against the exact
minimum, the path layout's zero crossings, and the reduction's budget and
read-back on every connected source graph of five vertices.
"""

from __future__ import annotations

import itertools
import math

import pytest

from reebdraw import (
    ReebGraph,
    arrangement_to_drawing,
    count_crossings_geometric,
    exact_rgcn,
    extract_arrangement,
    layout_cycle,
    layout_path,
    ola_brute,
    ola_reduce,
    top_down_iteration_number,
)
from reebdraw.gadget import OlaGraph, reduction_budget


def dihedral_classes(n: int) -> list[tuple[int, ...]]:
    """The height sequences 0..n-1 around an n-cycle, one per rotation and
    reflection class: the least sequence of each class."""
    classes = set()
    for p in itertools.permutations(range(n)):
        turns = [p[i:] + p[:i] for i in range(n)]
        classes.add(min(turns + [t[::-1] for t in turns]))
    return sorted(classes)


@pytest.mark.parametrize("n", range(3, 8))
def test_every_cycle_with_distinct_heights_draws_its_minimum(n):
    classes = dihedral_classes(n)
    assert len(classes) == math.factorial(n - 1) // 2
    ids = [f"v{i}" for i in range(n)]
    for heights in classes:
        g = ReebGraph.build(dict(zip(ids, heights)), [(ids[i], ids[(i + 1) % n]) for i in range(n)])
        k = top_down_iteration_number(g).iteration_count
        drawn = count_crossings_geometric(layout_cycle(g)).count
        assert drawn == k - 1 == exact_rgcn(g).count, (heights, drawn, k)


@pytest.mark.parametrize("n", range(2, 8))
def test_every_path_with_distinct_heights_is_drawn_crossing_free(n):
    # One path per reversal: the height sequence no greater than its reverse.
    paths = [p for p in itertools.permutations(range(n)) if p <= p[::-1]]
    assert len(paths) == math.factorial(n) // 2
    ids = [f"p{i}" for i in range(n)]
    for heights in paths:
        g = ReebGraph.build(dict(zip(ids, heights)), list(zip(ids, ids[1:])))
        assert count_crossings_geometric(layout_path(g)).count == 0, heights


def connected_graphs(n: int) -> list[OlaGraph]:
    """Every connected graph on n vertices up to isomorphism, each as its
    least edge list over the relabelings."""
    names = "abcdefgh"[:n]
    slots = list(itertools.combinations(range(n), 2))
    relabelings = list(itertools.permutations(range(n)))
    seen = set()
    for chosen in itertools.product((False, True), repeat=len(slots)):
        edges = [e for e, on in zip(slots, chosen) if on]
        g = OlaGraph(tuple(names), tuple((names[a], names[b]) for a, b in edges))
        if g.is_connected():
            seen.add(min(tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges)) for p in relabelings))
    return [OlaGraph(tuple(names), tuple((names[a], names[b]) for a, b in edges)) for edges in sorted(seen)]


def test_every_connected_five_vertex_source_draws_within_budget():
    graphs = connected_graphs(5)
    assert len(graphs) == 21  # OEIS A001349
    for g in graphs:
        best = ola_brute(g)
        inst = ola_reduce(g, best.cost)
        drawing, cert = arrangement_to_drawing(inst, best)
        assert cert.count <= reduction_budget(len(g.edges), best.cost) == inst.budget, g.edges
        top, bottom = extract_arrangement(drawing, inst)
        assert top.ranks == bottom.ranks == best.ranks, g.edges
