"""The path join (Section 4 of the paper).

For each query node the join starts from every (path id, frequency) pair of
its tag and prunes ids that cannot satisfy the query's structural
constraints, using the containment tests of Section 2.

Constraint derivation from the pattern edges:

* a structural edge ``U -/-> L`` or ``U -//-> L`` constrains (U, L) with
  the child / descendant relationship;
* a sibling-order edge ``X -folls/pres-> Y`` makes ``Y`` a child of ``X``'s
  structural parent ``P``, related to ``P`` by the same axis that relates
  ``X`` to ``P`` (siblings share the parent);
* a scoped-order edge ``X -foll/pre-> Y`` places ``Y`` somewhere below
  ``P``, i.e. a descendant constraint (P, Y).

**Depth-consistent containment.**  The paper checks the tag relationship
"in any one of the root-to-leaf paths" of the contained id.  Under
recursive schemas (XMark's ``parlist``/``listitem``) that pairwise test
lets a chain query match through *different* recursion levels per step and
breaks the exactness of Theorem 4.1.  Because a document node lies on every
path of its id at one fixed depth, each ``(tag, id)`` group has a feasible
depth set (:meth:`~repro.pathenc.encoding.EncodingTable.tag_depths`), and
the join can propagate (id, depth) survival instead of id survival alone.
This is the default; ``depth_consistent=False`` restores the plain pairwise
test for the ablation benchmark (DESIGN.md §5).

The paper prunes each adjacent pair with a nested loop; we optionally
iterate the pairwise pruning to a fixpoint — a pruned id can enable further
pruning upstream (Figure 3 needs two passes to reach the published state).
``fixpoint=False`` keeps the single-pass behaviour for the other ablation.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Set, Tuple

from repro.core.providers import PathStatsProvider
from repro.obs.trace import NULL_SPAN, NULL_TRACER
from repro.pathenc.encoding import EncodingTable
from repro.pathenc.relationship import Axis, pids_compatible
from repro.xpath.ast import Query, QueryAxis, QueryNode

_STRUCTURAL_AXIS = {
    QueryAxis.CHILD: Axis.CHILD,
    QueryAxis.DESCENDANT: Axis.DESCENDANT,
}


class _SupportCache:
    """Per-document cache of static (pid, depth) support relations.

    For a tag pair and axis, which upper (pid, depth) placements can
    support which lower (pid, depth) placements is a property of the
    encoding table alone — computed once, then every join constraint is a
    set-membership sweep instead of an O(|pids|^2) subset scan.  Cached
    per :class:`EncodingTable` (weakly, so documents can be collected).
    """

    _by_table: "weakref.WeakKeyDictionary[EncodingTable, Dict]" = (
        weakref.WeakKeyDictionary()
    )

    @classmethod
    def support(
        cls,
        table: EncodingTable,
        upper_tag: str,
        upper_pids: List[int],
        lower_tag: str,
        lower_pids: List[int],
        child: bool,
    ) -> Tuple[Dict[Tuple[int, int], Tuple[int, ...]], Dict[Tuple[int, int], Tuple[int, ...]]]:
        """Support maps for one constraint.

        Returns (lower-support, upper-support, lower-alive, upper-alive):
        ``lower-support[(pl, dl)]`` lists the upper pids that can support
        the lower placement; ``upper-support[(pu, du)]`` the lower pids a
        given upper placement can reach; the alive maps collapse the
        support keys to per-pid statically feasible depth sets (used to
        restrict the initial state before the dynamic rounds).
        """
        store = cls._by_table.setdefault(table, {})
        key = (upper_tag, lower_tag, child)
        entry = store.get(key)
        if entry is not None:
            known_upper, known_lower, maps = entry
            if known_upper.issuperset(upper_pids) and known_lower.issuperset(lower_pids):
                return maps
            known_upper.update(upper_pids)
            known_lower.update(lower_pids)
            maps = cls._build(
                table, upper_tag, sorted(known_upper), lower_tag, sorted(known_lower), child
            )
            store[key] = (known_upper, known_lower, maps)
            return maps
        maps = cls._build(table, upper_tag, upper_pids, lower_tag, lower_pids, child)
        store[key] = (set(upper_pids), set(lower_pids), maps)
        return maps

    @staticmethod
    def _build(table, upper_tag, upper_pids, lower_tag, lower_pids, child):
        down: Dict[Tuple[int, int], List[int]] = {}
        up: Dict[Tuple[int, int], List[int]] = {}
        upper_info = [
            (pu, table.tag_depths(upper_tag, pu)) for pu in upper_pids
        ]
        for pl in lower_pids:
            lower_depths = table.tag_depths(lower_tag, pl)
            if not lower_depths:
                continue
            for pu, upper_depths in upper_info:
                if (pu & pl) != pl or not upper_depths:
                    continue
                for dl in lower_depths:
                    if child:
                        supported = (dl - 1) in upper_depths
                    else:
                        supported = upper_depths[0] < dl  # depths sorted
                    if supported:
                        down.setdefault((pl, dl), []).append(pu)
                for du in upper_depths:
                    if child:
                        if (du + 1) in lower_depths:
                            up.setdefault((pu, du), []).append(pl)
                    elif lower_depths[-1] > du:
                        up.setdefault((pu, du), []).append(pl)
        down_alive: Dict[int, Set[int]] = {}
        for (pl, dl) in down:
            down_alive.setdefault(pl, set()).add(dl)
        up_alive: Dict[int, Set[int]] = {}
        for (pu, du) in up:
            up_alive.setdefault(pu, set()).add(du)
        return (
            {key: tuple(values) for key, values in down.items()},
            {key: tuple(values) for key, values in up.items()},
            down_alive,
            up_alive,
        )


class JoinResult:
    """Surviving (path id → frequency) maps per query node, keyed by
    ``node_id``."""

    def __init__(
        self,
        query: Query,
        surviving: Dict[int, Dict[int, float]],
        depths: Optional[Dict[int, Dict[int, Set[int]]]] = None,
    ):
        self.query = query
        self._surviving = surviving
        self._depths = depths

    def pids(self, node: QueryNode) -> Dict[int, float]:
        """Surviving path ids (and their frequencies) of one query node."""
        return dict(self._surviving[node.node_id])

    def depths(self, node: QueryNode) -> Dict[int, Set[int]]:
        """Surviving (path id → feasible depths); empty in pairwise mode."""
        if self._depths is None:
            return {}
        return {pid: set(ds) for pid, ds in self._depths[node.node_id].items()}

    def frequency(self, node: QueryNode) -> float:
        """The paper's f_Q(n): summed frequency of surviving ids."""
        return sum(self._surviving[node.node_id].values())

    @property
    def empty(self) -> bool:
        """True when any node lost all its path ids (negative query)."""
        return any(not pids for pids in self._surviving.values())

    def survivor_count(self) -> int:
        """Total surviving path ids across all nodes (trace counter)."""
        return sum(len(pids) for pids in self._surviving.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = [len(pids) for pids in self._surviving.values()]
        return "<JoinResult pids per node: %s>" % counts


def derive_constraints(query: Query) -> List[Tuple[QueryNode, Axis, QueryNode]]:
    """All (upper, axis, lower) structural constraints implied by a query."""
    constraints: List[Tuple[QueryNode, Axis, QueryNode]] = []
    for axis, source, dest in query.iter_edges():
        if axis.is_structural:
            constraints.append((source, _STRUCTURAL_AXIS[axis], dest))
            continue
        parent_link = query.parent_link(source)
        if axis.is_sibling_order:
            if parent_link is None:
                # The order edge hangs off the query root: the sibling pair
                # lives under an unknown document node; no upper constraint
                # can be derived from path ids alone.
                continue
            parent_axis, parent = parent_link
            if parent_axis.is_structural:
                constraints.append((parent, _STRUCTURAL_AXIS[parent_axis], dest))
            else:
                # Source is itself order-connected: fall back to the nearest
                # structural ancestor with a descendant constraint.
                link = structural_link(query, parent)
                if link is not None:
                    constraints.append((link[1], Axis.DESCENDANT, dest))
        else:  # scoped foll/pre: dest lives below source's structural parent
            link = structural_link(query, source)
            if link is not None:
                constraints.append((link[1], Axis.DESCENDANT, dest))
    return constraints


def structural_link(
    query: Query, node: QueryNode
) -> Optional[Tuple[QueryAxis, QueryNode]]:
    """(axis, ancestor) of the nearest structural edge above ``node``,
    walking up through order edges; ``None`` when there is none."""
    link = query.parent_link(node)
    while link is not None and not link[0].is_structural:
        link = query.parent_link(link[1])
    return link


def path_join(
    query: Query,
    provider: PathStatsProvider,
    table: EncodingTable,
    fixpoint: bool = True,
    depth_consistent: bool = True,
    max_rounds: int = 64,
    tracer=NULL_TRACER,
    kernel=None,
) -> JoinResult:
    """Run the path join and return the surviving id sets.

    ``tracer`` (a :class:`repro.obs.trace.Tracer` or the default no-op
    :data:`~repro.obs.trace.NULL_TRACER`) accrues a ``join`` aggregate
    span with ``pathid-match`` nested under it; repeated joins inside
    one estimate merge into one span each.

    ``query`` is a :class:`~repro.xpath.ast.Query` or a
    :class:`~repro.core.transform.MaskedPattern` (a sub-pattern of one
    compiled pattern); either way the result is keyed by ``node_id``.

    ``kernel`` (a :class:`repro.kernel.SynopsisKernel` or ``None``)
    switches the default depth-consistent fixpoint onto the compiled
    bitset path, which produces bit-identical results; the ablation
    modes and providers the kernel was not compiled from fall back to
    the dict pipeline below.
    """
    if kernel is not None:
        if fixpoint and depth_consistent and kernel.supports(provider, table):
            return kernel.join(query, provider=provider, tracer=tracer)
        kernel.note_fallback()
    with tracer.aggregate("join") as span:
        if depth_consistent:
            result = _depth_join(
                query, provider, table, fixpoint, max_rounds, tracer, span
            )
        else:
            result = _pairwise_join(
                query, provider, table, fixpoint, max_rounds, tracer, span
            )
        if tracer.enabled:
            span.incr("surviving_pids", result.survivor_count())
    return result


# ----------------------------------------------------------------------
# Depth-consistent join (default)
# ----------------------------------------------------------------------


def _initial_state(
    provider: PathStatsProvider, table: EncodingTable, tag: str
) -> Tuple[Dict[int, float], Dict[int, Set[int]], Optional[Dict[int, Dict[int, float]]]]:
    """Per-tag starting state of the join, cached on the provider.

    When the provider exposes per-depth frequencies (the depth-refined
    extension), the empirical depths both seed the depth sets and let the
    join recompute frequencies as depths are pruned.
    """
    cache = getattr(provider, "_join_init_cache", None)
    if cache is None:
        cache = {}
        try:
            setattr(provider, "_join_init_cache", cache)
        except AttributeError:  # provider with __slots__: skip caching
            cache = None
    if cache is not None:
        cached = cache.get(tag)
        if cached is not None:
            return cached
    depth_freqs: Optional[Dict[int, Dict[int, float]]] = None
    refined = getattr(provider, "depth_frequency_map", None)
    if refined is not None:
        depth_freqs = refined(tag)
    tag_freqs: Dict[int, float] = {}
    tag_depths: Dict[int, Set[int]] = {}
    for pid, freq in provider.frequency_pairs(tag):
        if depth_freqs is not None:
            empirical = depth_freqs.get(pid)
            if empirical:
                tag_freqs[pid] = freq
                tag_depths[pid] = set(empirical)
            continue
        feasible = table.tag_depths(tag, pid)
        if feasible:
            tag_freqs[pid] = freq
            tag_depths[pid] = set(feasible)
    entry = (tag_freqs, tag_depths, depth_freqs)
    if cache is not None:
        cache[tag] = entry
    return entry


def _depth_join(
    query: Query,
    provider: PathStatsProvider,
    table: EncodingTable,
    fixpoint: bool,
    max_rounds: int,
    tracer=NULL_TRACER,
    join_span=NULL_SPAN,
) -> JoinResult:
    nodes = query.nodes()
    freqs: Dict[int, Dict[int, float]] = {}
    depths: Dict[int, Dict[int, Set[int]]] = {}
    dfreqs: Dict[int, Optional[Dict[int, Dict[int, float]]]] = {}
    with tracer.aggregate("pathid-match") as match_span:
        for node in nodes:
            node_id = node.node_id
            # Shared references: the constraint loop replaces (never
            # mutates) these dicts and the per-placement sets, so no
            # defensive copy is needed.
            freqs[node_id], depths[node_id], dfreqs[node_id] = _initial_state(
                provider, table, node.tag
            )
            match_span.incr("pids_matched", len(freqs[node_id]))
    empty = {node.node_id: {} for node in nodes}

    if query.root_axis is QueryAxis.CHILD:
        root_id = query.root.node_id
        kept = {pid: {0} for pid, ds in depths[root_id].items() if 0 in ds}
        depths[root_id] = kept
        freqs[root_id] = {pid: freqs[root_id][pid] for pid in kept}

    constraints = derive_constraints(query)
    # Static support maps, cached per document (see _SupportCache).
    supports = [
        _SupportCache.support(
            table,
            upper.tag,
            list(depths[upper.node_id]),
            lower.tag,
            list(depths[lower.node_id]),
            axis is Axis.CHILD,
        )
        for upper, axis, lower in constraints
    ]
    # Static restriction: drop placements with no possible support before
    # the dynamic rounds (equivalent to the constraint's first sweep minus
    # the dynamic checks, at a fraction of the cost).
    for (upper, _axis, lower), maps in zip(constraints, supports):
        _static_restrict(freqs, depths, lower.node_id, maps[2], dfreqs)
        _static_restrict(freqs, depths, upper.node_id, maps[3], dfreqs)
        if not freqs[upper.node_id] or not freqs[lower.node_id]:
            return JoinResult(query, empty, empty)
    # Forward + backward sweeps make pruning propagate both ways within
    # one round; per-node version counters let a constraint skip when
    # neither endpoint changed since it last ran.
    indexed = list(zip(constraints, supports))
    schedule = indexed + indexed[::-1] if fixpoint else indexed
    version = dict.fromkeys(freqs, 0)
    last_seen: List[Tuple[int, int]] = [(-1, -1)] * len(schedule)
    rounds = max_rounds if fixpoint else 1
    for _ in range(rounds):
        join_span.incr("rounds")
        changed = False
        for index, ((upper, axis, lower), support) in enumerate(schedule):
            uid, lid = upper.node_id, lower.node_id
            if last_seen[index] == (version[uid], version[lid]):
                continue
            upper_changed, lower_changed = _apply_depth_constraint(
                axis, freqs, depths, uid, lid, support, dfreqs
            )
            if upper_changed:
                version[uid] += 1
                changed = True
            if lower_changed:
                version[lid] += 1
                changed = True
            last_seen[index] = (version[uid], version[lid])
            if not freqs[uid] or not freqs[lid]:
                return JoinResult(query, empty, empty)
        if not changed:
            break
    if any(not f for f in freqs.values()):
        return JoinResult(query, empty, empty)
    return JoinResult(query, freqs, depths)


def _node_freq(
    pid: int,
    kept_depths: Set[int],
    old_freq: float,
    node_dfreqs: Optional[Dict[int, Dict[int, float]]],
) -> float:
    """Frequency of one pid after depth pruning.

    Plain statistics cannot split a pid's frequency across depths (the
    paper's granularity); depth-refined statistics can.
    """
    if node_dfreqs is None:
        return old_freq
    per_depth = node_dfreqs.get(pid)
    if per_depth is None:
        return old_freq
    return sum(per_depth.get(depth, 0.0) for depth in kept_depths)


def _static_restrict(
    freqs: Dict[int, Dict[int, float]],
    depths: Dict[int, Dict[int, Set[int]]],
    node_id: int,
    alive: Dict[int, Set[int]],
    dfreqs: Dict[int, Optional[Dict[int, Dict[int, float]]]],
) -> None:
    """Intersect one node's placements with a static feasibility map."""
    current = depths[node_id]
    restricted: Dict[int, Set[int]] = {}
    changed = False
    for pid, dls in current.items():
        feasible = alive.get(pid)
        if not feasible:
            changed = True
            continue
        inter = dls & feasible
        if inter:
            restricted[pid] = inter
        if len(inter) != len(dls):
            changed = True
    if changed:
        depths[node_id] = restricted
        node_dfreqs = dfreqs[node_id]
        freqs[node_id] = {
            pid: _node_freq(pid, kept, freqs[node_id][pid], node_dfreqs)
            for pid, kept in restricted.items()
        }


def _apply_depth_constraint(
    axis: Axis,
    freqs: Dict[int, Dict[int, float]],
    depths: Dict[int, Dict[int, Set[int]]],
    upper_id: int,
    lower_id: int,
    support: Tuple[Dict, Dict],
    dfreqs: Dict[int, Optional[Dict[int, Dict[int, float]]]],
) -> Tuple[bool, bool]:
    """Prune both sides of one constraint.

    Returns (upper changed, lower changed).  ``support`` holds the static
    placement-support maps; only dynamic membership (is the supporting
    pid/depth still alive?) is checked here.
    """
    child = axis is Axis.CHILD
    down_support, up_support = support[0], support[1]
    upper_depths = depths[upper_id]
    lower_depths = depths[lower_id]
    lower_changed = False

    # Lower side: (pl, dl) survives if some (pu ⊇ pl, du) supports it.
    new_lower: Dict[int, Set[int]] = {}
    for pl, dls in lower_depths.items():
        kept: Set[int] = set()
        for dl in dls:
            for pu in down_support.get((pl, dl), ()):
                dus = upper_depths.get(pu)
                if dus is None:
                    continue
                if child:
                    if dl - 1 in dus:
                        kept.add(dl)
                        break
                elif min(dus) < dl:
                    kept.add(dl)
                    break
        if kept:
            new_lower[pl] = kept
        if kept != dls:
            lower_changed = True

    # Upper side: (pu, du) survives if some (pl ⊆ pu, dl) is reachable.
    upper_changed = False
    new_upper: Dict[int, Set[int]] = {}
    for pu, dus in upper_depths.items():
        kept = set()
        for du in dus:
            for pl in up_support.get((pu, du), ()):
                dls = new_lower.get(pl)
                if dls is None:
                    continue
                if child:
                    if du + 1 in dls:
                        kept.add(du)
                        break
                elif max(dls) > du:
                    kept.add(du)
                    break
        if kept:
            new_upper[pu] = kept
        if kept != dus:
            upper_changed = True

    if lower_changed:
        depths[lower_id] = new_lower
        lower_dfreqs = dfreqs[lower_id]
        freqs[lower_id] = {
            pid: _node_freq(pid, kept, freqs[lower_id][pid], lower_dfreqs)
            for pid, kept in new_lower.items()
        }
    if upper_changed:
        depths[upper_id] = new_upper
        upper_dfreqs = dfreqs[upper_id]
        freqs[upper_id] = {
            pid: _node_freq(pid, kept, freqs[upper_id][pid], upper_dfreqs)
            for pid, kept in new_upper.items()
        }
    return upper_changed, lower_changed


# ----------------------------------------------------------------------
# Plain pairwise join (the paper's literal reading; ablation)
# ----------------------------------------------------------------------


def _pairwise_join(
    query: Query,
    provider: PathStatsProvider,
    table: EncodingTable,
    fixpoint: bool,
    max_rounds: int,
    tracer=NULL_TRACER,
    join_span=NULL_SPAN,
) -> JoinResult:
    nodes = query.nodes()
    with tracer.aggregate("pathid-match") as match_span:
        surviving: Dict[int, Dict[int, float]] = {
            node.node_id: dict(provider.frequency_pairs(node.tag)) for node in nodes
        }
        match_span.incr(
            "pids_matched", sum(len(pids) for pids in surviving.values())
        )
    if query.root_axis is QueryAxis.CHILD:
        root = query.root
        surviving[root.node_id] = {
            pid: freq
            for pid, freq in surviving[root.node_id].items()
            if 0 in table.tag_depths(root.tag, pid)
        }
    constraints = derive_constraints(query)
    rounds = max_rounds if fixpoint else 1
    for _ in range(rounds):
        join_span.incr("rounds")
        changed = False
        for upper, axis, lower in constraints:
            upper_pids = surviving[upper.node_id]
            lower_pids = surviving[lower.node_id]
            if not upper_pids or not lower_pids:
                return JoinResult(query, {node.node_id: {} for node in nodes})
            kept_upper = {
                pu: freq
                for pu, freq in upper_pids.items()
                if any(
                    pids_compatible(table, upper.tag, pu, lower.tag, pl, axis)
                    for pl in lower_pids
                )
            }
            kept_lower = {
                pl: freq
                for pl, freq in lower_pids.items()
                if any(
                    pids_compatible(table, upper.tag, pu, lower.tag, pl, axis)
                    for pu in kept_upper
                )
            }
            if len(kept_upper) != len(upper_pids) or len(kept_lower) != len(lower_pids):
                changed = True
            surviving[upper.node_id] = kept_upper
            surviving[lower.node_id] = kept_lower
        if not changed:
            break
    if any(not pids for pids in surviving.values()):
        return JoinResult(query, {node.node_id: {} for node in nodes})
    return JoinResult(query, surviving)
