"""Compiled-query LRU cache for the estimation service.

Estimating a query string from scratch means tokenizing + parsing it,
scanning its edges to pick a route, and — for scoped ``foll``/``pre``
axes — running the Example 5.3 rewrite (itself a full path join) before
any estimation happens.  All of that is a pure function of
``(synopsis generation, query text)``, so a hot query compiles once.

A :class:`CompiledPlan` therefore carries the parsed AST, the chosen
route (:data:`~repro.core.system.ROUTE_NO_ORDER` /
:data:`~repro.core.system.ROUTE_ORDER` /
:data:`~repro.core.system.ROUTE_SCOPED`), the precomputed rewrite
variants for scoped queries and the canonical key.  It holds no
estimate: the served value is read through the synopsis's semantic
result cache, keyed by that canonical key.  :class:`PlanCache` is a
thread-safe LRU keyed by ``(synopsis name, generation, query text)`` —
hot reloads and refreshing deltas bump the generation, so stale plans simply
age out.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.axis_rewrite import rewrite_scoped_order_query
from repro.core.system import ROUTE_SCOPED, EstimationSystem
from repro.semcache import canonical_key
from repro.xpath.ast import Query
from repro.xpath.parser import parse_query

DEFAULT_CAPACITY = 512


class CompiledPlan:
    """A query compiled against one synopsis generation."""

    __slots__ = ("text", "query", "route", "variants", "canonical")

    def __init__(
        self,
        text: str,
        query: Query,
        route: str,
        variants: Optional[List[Tuple[Query, str]]] = None,
    ):
        self.text = text
        self.query = query
        self.route = route
        self.variants = variants
        # Semantic-cache key, computed once at compile time (off the
        # hot path) so equivalent-but-differently-written texts share
        # one entry in the system's SemanticResultCache.
        self.canonical = canonical_key(query)

    def execute(self, system: EstimationSystem) -> float:
        """Estimate the plan on ``system`` (a fresh execution)."""
        if self.variants is not None:
            return sum(
                system._estimate_routed(query, route)
                for query, route in self.variants
            )
        return system._estimate_routed(self.query, self.route)


def compile_plan(system: EstimationSystem, text: str) -> CompiledPlan:
    """Parse, route and (for scoped axes) pre-rewrite one query text.

    The text is parsed uncached, so the plan cache is the only holder of
    a served AST: an evicted plan frees its AST (and its scoped
    variants), instead of the parser's text-keyed LRU keeping thousands
    of cold ASTs alive for the collector to walk.
    """
    query = parse_query(text)
    route = system.select_route(query)
    variants: Optional[List[Tuple[Query, str]]] = None
    if route == ROUTE_SCOPED:
        variants = [
            (variant, system.select_route(variant))
            for variant in rewrite_scoped_order_query(
                query,
                system.path_provider,
                system.encoding_table,
                kernel=system.kernel(),
            )
        ]
    return CompiledPlan(text, query, route, variants)


@dataclass(frozen=True)
class PlanCacheStats:
    """Point-in-time cache counters (monotonic except size)."""

    capacity: int
    size: int
    hits: int
    misses: int
    evictions: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "capacity": self.capacity,
            "size": self.size,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class PlanCache:
    """Thread-safe LRU from query text to compiled plan.

    ``capacity=0`` disables caching: every lookup compiles afresh (and
    counts as a miss), which is the control arm of the throughput
    benchmark.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = max(0, capacity)
        self._plans: "OrderedDict[Tuple[str, int, str], CompiledPlan]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def get_or_compile(
        self,
        name: str,
        generation: int,
        system: EstimationSystem,
        text: str,
    ) -> Tuple[CompiledPlan, bool]:
        """The cached plan for ``(name, generation, text)``; ``(plan,
        was_hit)``.  Compilation runs outside the lock — two racing
        threads may compile the same plan once each, the second insert
        wins and both results are identical."""
        key = (name, generation, text)
        if self.enabled:
            with self._lock:
                plan = self._plans.get(key)
                if plan is not None:
                    self._plans.move_to_end(key)
                    self._hits += 1
                    return plan, True
                self._misses += 1
        else:
            with self._lock:
                self._misses += 1
        plan = compile_plan(system, text)
        if self.enabled:
            with self._lock:
                self._plans[key] = plan
                self._plans.move_to_end(key)
                while len(self._plans) > self.capacity:
                    self._plans.popitem(last=False)
                    self._evictions += 1
        return plan, False

    def invalidate(self, name: Optional[str] = None) -> int:
        """Drop every plan (or every plan of one synopsis); returns the
        number removed."""
        with self._lock:
            if name is None:
                removed = len(self._plans)
                self._plans.clear()
                return removed
            stale = [key for key in self._plans if key[0] == name]
            for key in stale:
                del self._plans[key]
            return len(stale)

    def stats(self) -> PlanCacheStats:
        with self._lock:
            return PlanCacheStats(
                capacity=self.capacity,
                size=len(self._plans),
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)
