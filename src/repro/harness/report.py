"""Assemble a single experiment report from ``bench_results/``.

``pytest benchmarks/ --benchmark-only`` persists each regenerated table
and figure as ``bench_results/<name>.txt``; this module stitches them into
one document (the order follows the paper's evaluation section) so the
full reproduction can be read or archived as a single file.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

# Paper order first, extras after.
PREFERRED_ORDER = [
    "table1_datasets",
    "table2_workload",
    "table3_space",
    "table4_construction",
    "table5_order_construction",
    "fig9_memory",
    "fig10_no_order_error",
    "fig11_vs_xsketch",
    "fig12_order_branch",
    "fig13_order_trunk",
    "ablation_bucketing",
    "ablation_trunk_min",
    "ablation_pathjoin",
    "ablation_depth_refined",
    "baselines_panorama",
    "throughput",
    "build_throughput",
    "service_throughput",
    "obs_overhead",
    "structural_join_pruning",
    "scoped_axes",
    "cluster_scaling",
    "cluster_delta",
    "traffic_capacity",
    "semcache_qps",
    "semcache_bit_identity",
    "semcache_bump",
]

HEADER = """\
REPRODUCTION REPORT — An Estimation System for XPath Expressions (ICDE 2006)

Regenerated tables and figures follow, in the paper's order (extras last).
See EXPERIMENTS.md for the paper-vs-measured commentary and DESIGN.md for
the substitutions and resolved ambiguities.
"""


def collect_results(directory: str) -> Dict[str, str]:
    """Read every ``<name>.txt`` under ``directory``."""
    results: Dict[str, str] = {}
    if not os.path.isdir(directory):
        return results
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(".txt"):
            continue
        path = os.path.join(directory, filename)
        with open(path, "r", encoding="utf-8") as handle:
            results[filename[:-4]] = handle.read().rstrip()
    return results


def ordered_names(results: Dict[str, str]) -> List[str]:
    known = [name for name in PREFERRED_ORDER if name in results]
    extras = sorted(name for name in results if name not in PREFERRED_ORDER)
    return known + extras


def build_report(directory: str = "bench_results") -> str:
    """The full stitched report; notes missing experiments explicitly."""
    results = collect_results(directory)
    sections: List[str] = [HEADER]
    if not results:
        sections.append(
            "No results found in %r — run `pytest benchmarks/ "
            "--benchmark-only` first." % directory
        )
        return "\n".join(sections)
    for name in ordered_names(results):
        sections.append("=" * 72)
        sections.append(name)
        sections.append("=" * 72)
        sections.append(results[name])
        sections.append("")
    missing = [name for name in PREFERRED_ORDER if name not in results]
    if missing:
        sections.append("Missing experiments (bench not run?): %s" % ", ".join(missing))
    return "\n".join(sections)


def write_report(directory: str = "bench_results", output: Optional[str] = None) -> str:
    """Build the report and optionally write it to ``output``."""
    text = build_report(directory)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    return text
