"""Scenario: a growing corpus with a persisted synopsis.

Production pattern: the bibliography grows all day (appended records), the
statistics are maintained incrementally, and a compact synopsis snapshot
is shipped to the query optimizer — which estimates without ever touching
the documents.

The script demonstrates the full loop:

1. build a delta-capable synopsis over an initial DBLP-like corpus;
2. append new records as scanned fragments (no rebuild);
3. snapshot the synopsis to JSON and reload it "on the optimizer side";
4. verify the reloaded estimator tracks the grown corpus.

The snapshot embeds the maintainer's exact tables beside the histograms,
so the reloaded synopsis can take further appends; that is why it is
about twice the size of a plain snapshot (56.4 KB against 27.5 KB here).

Run with::

    python examples/growing_corpus.py
"""

import random

from repro.cluster.delta import IncrementalSynopsis
from repro.datasets import generate_dblp
from repro.persist import dumps, loads
from repro.xmltree.document import XmlDocument
from repro.xmltree.node import XmlNode
from repro.xmltree.serializer import serialize
from repro.xpath import Evaluator, parse_query


def clone_subtree(node: XmlNode) -> XmlNode:
    copy = XmlNode(node.tag, dict(node.attributes), node.text)
    for child in node.children:
        copy.append(clone_subtree(child))
    return copy


QUERIES = ["//dblp/article/$author", "//inproceedings/$title", "//article[/month]/$author"]


def main() -> None:
    document = generate_dblp(scale=0.05, seed=8)
    maintainer = IncrementalSynopsis.build(
        serialize(document), p_variance=0, o_variance=2
    )
    print("Initial corpus: %d elements" % len(document))

    # --- the corpus grows: clone-and-append existing record shapes -------
    # Each record reaches the synopsis as a scanned fragment; the tree is
    # kept only to count the exact answers below.
    rng = random.Random(1)
    templates = list(document.root.children)
    appends = 40
    for _ in range(appends):
        record = clone_subtree(rng.choice(templates))
        maintainer.apply(maintainer.scan_fragment(serialize(record)))
        document.root.append(record)
    document = XmlDocument(document.root)
    print("Appended %d records incrementally -> %d elements" % (appends, len(document)))

    # --- snapshot the synopsis and ship it to the optimizer ----------------
    snapshot = dumps(maintainer.system)
    print("Synopsis snapshot: %.1f KB of JSON" % (len(snapshot) / 1024.0))

    optimizer_side = loads(snapshot)  # no document over here
    evaluator = Evaluator(document)
    print("\n%-34s %10s %8s" % ("query", "estimate", "actual"))
    for text in QUERIES:
        query = parse_query(text)
        print(
            "%-34s %10.1f %8d"
            % (text, optimizer_side.estimate(query), evaluator.selectivity(query))
        )

    print(
        "\nThe reloaded estimator reflects every appended record without a"
        "\nstatistics rebuild or access to the documents."
    )


if __name__ == "__main__":
    main()
