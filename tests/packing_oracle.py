"""Reference disjoint-path packing over label-space node sets.

The shipped packing decider, :func:`repro.graphs.has_disjoint_mask_packing`,
works on node-index bitmasks.  This module is the test-only reference it
is compared against: the same question — *are there ``k`` pairwise
node-disjoint paths in this list?* — answered over frozensets of labels
by its own exact depth-first search, sharing no code with the shipped
one.  It sits at the top of ``tests/`` so both ``tests/graphs`` and
``tests/consensus`` import it; ``graphs/flow_oracle.py`` is its max-flow
counterpart.
"""

from repro.graphs import GraphError, internal_nodes


def has_disjoint_path_packing(paths, k, mode="uv"):
    """Decide whether ``k`` pairwise node-disjoint paths exist in ``paths``.

    ``mode="uv"``: paths share both endpoints; disjointness = no common
    internal node.  ``mode="set"``: ``Uv``-paths sharing only the final
    node ``v``; disjointness = no common node besides ``v``.

    Exact decision via DFS over conflict bitmasks with two prunes:
    (a) remaining candidates cannot reach ``k``; (b) candidate ordering
    by conflict degree.
    """
    if k <= 0:
        return True
    if mode not in ("uv", "set"):
        raise GraphError(f"unknown packing mode {mode!r}")
    if mode == "uv":
        items = [frozenset(internal_nodes(p)) for p in paths]
    else:
        items = [frozenset(p[:-1]) for p in paths]
    if len(items) < k:
        return False
    # Conflict bitmask per path: bit j set iff path i conflicts with path j.
    m = len(items)
    conflict = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            if items[i] & items[j]:
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i
    order = sorted(range(m), key=lambda i: conflict[i].bit_count())
    return _search(order, conflict, k, 0, 0, (1 << m) - 1)


def _search(order, conflict, k, start, chosen, alive):
    """Can ``k - chosen`` more pairwise non-conflicting candidates be
    taken from ``alive``, trying them in ``order`` from ``start``?"""
    if chosen >= k:
        return True
    for idx in range(start, len(order)):
        i = order[idx]
        if not (alive >> i) & 1:
            continue
        remaining_after = alive & ~conflict[i] & ~(1 << i)
        # prune: even taking everything alive past idx can't reach k
        if chosen + 1 + remaining_after.bit_count() < k:
            continue
        if _search(order, conflict, k, idx + 1, chosen + 1, remaining_after):
            return True
    return False


def max_disjoint_path_packing(paths, mode="uv"):
    """The largest number of pairwise node-disjoint paths in ``paths``."""
    lo, hi = 0, len(paths)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if has_disjoint_path_packing(paths, mid, mode=mode):
            lo = mid
        else:
            hi = mid - 1
    return lo
