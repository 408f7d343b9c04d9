"""Order queries with more than one sibling-order edge, read off a
document.

The workload generator fixes one ``folls``/``pres`` axis per query; the
generalized Equation 5 (several axes) needs its own probes.  Each probe
is built on a parent tag ``P`` whose children show the tags ``A``, ``B``,
``C`` in that order of first occurrence, so the probes are not
vacuously empty.
"""

from __future__ import annotations

from typing import List, Tuple

PATTERNS = (
    "//{P}[/{A}/folls::{B}/folls::{C}]",
    "//{P}[/${A}/folls::{B}/folls::{C}]",
    "//{P}[/{A}/folls::${B}/folls::{C}]",
    "//{P}[/{A}/folls::{B}/folls::${C}]",
    "//{P}[/{C}/pres::${B}/pres::{A}]",
    "//{P}[/{A}/folls::${B}][/{B}/folls::{C}]",
    "//{P}[/{C}/pres::{B}][/${B}/pres::{A}]",
)


def sibling_triples(document, limit: int) -> List[Tuple[str, str, str, str]]:
    """Up to ``limit`` ``(P, A, B, C)`` tag tuples, sorted."""
    triples = set()
    for node in document.root.iter_preorder():
        distinct = list(dict.fromkeys(child.tag for child in node.children))
        for i, a in enumerate(distinct):
            for j in range(i + 1, len(distinct)):
                for c in distinct[j + 1:]:
                    triples.add((node.tag, a, distinct[j], c))
    ordered = sorted(triples)
    step = max(1, len(ordered) // limit)
    return ordered[::step][:limit]


def multi_edge_order_queries(document, limit: int = 12) -> List[str]:
    """Probe texts for every pattern over every triple."""
    return [
        pattern.format(P=p, A=a, B=b, C=c)
        for p, a, b, c in sibling_triples(document, limit)
        for pattern in PATTERNS
    ]
