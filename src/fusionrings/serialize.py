"""JSON and DOT output helpers shared by the CLI."""

from __future__ import annotations

import json

from .central import CosetPartition
from .ring import FusionRing


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def merge_graph_dot(ring: FusionRing, depth: int = 6) -> str:
    """The merge graph: nodes are explored basis elements, edges join labels
    that co-occur in the support of some product."""
    explored = ring.elements(depth)
    edges = set()
    for a in explored:
        for b in explored:
            supp = sorted(ring.fusion[a, b], key=ring.order_key)
            for i, x in enumerate(supp):
                for y in supp[i + 1:]:
                    edges.add((x, y) if ring.order_key(x) <= ring.order_key(y) else (y, x))
    lines = ["graph merge {"]
    for l in explored:
        lines.append(f'  {_quoted(l)} [label={_quoted(f"{l} (dim {ring.dim(l)})")}];')
    for x, y in sorted(edges, key=lambda e: (ring.order_key(e[0]), ring.order_key(e[1]))):
        lines.append(f'  {_quoted(x)} -- {_quoted(y)};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _quoted(text: str) -> str:  # a quoted DOT ID, its backslashes and quotes escaped
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def partition_table(part: CosetPartition) -> str:
    lines = []
    for i, blk in enumerate(part.blocks):
        tag = " (identity)" if i == part.identity_block else ""
        lines.append(f"block {i}{tag}: {', '.join(blk)}")
    return "\n".join(lines) + "\n"
