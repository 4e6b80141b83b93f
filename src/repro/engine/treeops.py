"""Order-controlled scatter-add passes over parent-pointer forests.

The batched analysis kernel (:mod:`repro.engine.batched`) reduces every
tree computation to three primitives over a parent-pointer array:

* :func:`accumulate_downstream` — bottom-up suffix sum (downstream
  capacitance), the vectorised replacement for the legacy reversed
  Python loop;
* :func:`accumulate_prefix` — top-down prefix sum along root-to-node
  paths (Elmore delay, shared-resistance path sums);
* :func:`scatter_add` — entry-ordered incidence application (per-node
  wire capacitance), replacing a dense node x wire matmul.

Floating-point addition is not associative, so results that are
reproducible to the bit need every caller to issue the same additions
in the same order.  The primitives pin that order down:

* ``accumulate_downstream`` processes depth levels deepest-first and,
  within a level, nodes in **descending index order** — exactly the
  order of the legacy ``for i in range(n - 1, 0, -1)`` loop (node
  indices are topological, and all children of a node share its
  level+1, so the legacy loop adds siblings into their parent in
  descending index order).  ``np.add.at`` applies duplicate indices
  sequentially in index-array order, which makes the level pass a
  faithful re-ordering of the same float additions — bit-identical, not
  merely close.
* ``accumulate_prefix`` is collision-free (each node reads its already
  final parent value), so only the per-node association
  ``acc[v] = acc[parent] + x[v]`` needs pinning.
* ``scatter_add`` applies incidence entries in construction order, the
  order the extraction recorded them.

Because additions into a parent only ever come from its own children
(same stage, same level), the primitives produce bit-identical results
whether a forest is processed stage-by-stage or as one concatenated
whole-design forest — the property the treeops micro-tests in
``tests/test_engine_backends.py`` assert.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "build_levels",
    "accumulate_downstream",
    "accumulate_downstream_loop",
    "accumulate_prefix",
    "scatter_add",
]


def build_levels(parent: np.ndarray) -> list[np.ndarray]:
    """Per-depth node index arrays of a parent-pointer forest.

    ``parent[v]`` is the index of ``v``'s parent, or ``-1`` for roots;
    parents must precede children (topological index order).  Returns
    one ascending ``int64`` index array per depth, shallowest first.
    Level 0 holds the roots.
    """
    n = len(parent)
    depth = np.zeros(n, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    for i in range(n):
        p = parent[i]
        if p >= 0:
            if p >= i:
                raise ValueError(
                    f"parent[{i}] = {p} does not precede its child; "
                    f"node order must be topological")
            depth[i] = depth[p] + 1
    levels: list[np.ndarray] = []
    if n:
        order = np.argsort(depth, kind="stable")
        bounds = np.searchsorted(depth[order],
                                 np.arange(int(depth.max()) + 2))
        for d in range(len(bounds) - 1):
            levels.append(np.sort(order[bounds[d]:bounds[d + 1]]))
    return levels


def accumulate_downstream(values: np.ndarray, parent: np.ndarray,
                          levels: list[np.ndarray]) -> np.ndarray:
    """Bottom-up suffix sum: fold every node into its parent, in place.

    After the call, ``values[v]`` holds the sum of ``v``'s whole
    subtree.  ``values`` may be 1-D ``(n,)`` or 2-D ``(n, k)`` (the
    Monte-Carlo sample axis rides along).  Bit-identical to
    :func:`accumulate_downstream_loop` — see the module docstring for
    why the descending-index level order reproduces the legacy reversed
    loop exactly.
    """
    for level in reversed(levels[1:]):
        idx = level[::-1]  # descending index: the legacy loop's order
        np.add.at(values, parent[idx], values[idx])
    return values


def accumulate_downstream_loop(values: np.ndarray,
                               parent: np.ndarray) -> np.ndarray:
    """The legacy reversed-loop suffix sum (reference for micro-asserts).

    Kept as the executable specification of the accumulation order;
    tests assert :func:`accumulate_downstream` matches it bit for bit
    on seeded random trees.
    """
    for i in range(len(parent) - 1, 0, -1):
        p = parent[i]
        if p >= 0:
            values[p] += values[i]
    return values


def accumulate_prefix(values: np.ndarray, parent: np.ndarray,
                      levels: list[np.ndarray]) -> np.ndarray:
    """Top-down prefix sum along root-to-node paths, in place.

    After the call, ``values[v]`` holds the sum of the original values
    over the path from ``v``'s root down to ``v`` (roots keep their own
    value), associated as ``acc[v] = acc[parent[v]] + x[v]``.  Each
    level is a pure gather from the already-final parent level, so the
    pass is collision-free and deterministic.  ``values`` may be 1-D or
    2-D as in :func:`accumulate_downstream`.
    """
    for level in levels[1:]:
        values[level] += values[parent[level]]
    return values


def scatter_add(out: np.ndarray, index: np.ndarray,
                values: np.ndarray) -> np.ndarray:
    """Entry-ordered ``out[index[e]] += values[e]``, in place.

    ``np.add.at`` applies duplicate indices sequentially in entry
    order, which is the ordering contract for incidence (node <- wire
    capacitance) application.
    """
    np.add.at(out, index, values)
    return out
