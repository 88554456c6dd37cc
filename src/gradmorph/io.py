"""Text codecs for graphs, solutions, update streams, and run manifests.

Formats are line-oriented with `#` comments: graphs (`v <id>` optional,
`e <u> <v> <w>`), matchings/forests (`<u> <v>` per line), update streams
(`+e u v w`, `-e u v`, `+v id u1 w1 u2 w2 ...`, `-v id`). Manifests are
JSON and reference input files by SHA-256 digest of canonicalized text so
identical reruns emit byte-identical artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from .graph import (DataError, Graph, Matching, SpanningForest, UpdateEvent,
                    checked_weight)

TOOL_VERSION = "gradmorph 0.1.0"


def _tokens(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def parse_graph(text: str) -> Graph:
    g = Graph()
    for lineno, toks in _tokens(text):
        try:
            if toks[0] == "v":
                g.ensure_vertex(int(toks[1]))
            elif toks[0] == "e":
                u, v = int(toks[1]), int(toks[2])
                w = float(toks[3]) if len(toks) > 3 else 1.0
                g.add_edge(u, v, w)
            else:
                raise DataError(f"unknown record {toks[0]!r}")
        except (DataError, ValueError, IndexError) as exc:
            raise DataError(f"graph line {lineno}: {exc}") from None
    return g


def emit_graph(g: Graph) -> str:
    lines = [f"v {v}" for v in sorted(g.vertices)]
    lines += [f"e {u} {v} {w!r}" for _, u, v, w in sorted(g.edges())]
    return "\n".join(lines) + "\n"


def parse_edge_set(text: str, g: Graph) -> list[int]:
    eids = []
    for lineno, toks in _tokens(text):
        try:
            u, v = int(toks[0]), int(toks[1])
            eids.append(g.edge_id(u, v))
        except (DataError, ValueError, IndexError) as exc:
            raise DataError(f"solution line {lineno}: {exc}") from None
    return eids


def parse_matching(text: str, g: Graph) -> Matching:
    try:
        return Matching(g, parse_edge_set(text, g))
    except DataError as exc:
        raise DataError(f"matching file: {exc}") from None


def parse_forest(text: str, g: Graph) -> SpanningForest:
    return SpanningForest(g, parse_edge_set(text, g))


def emit_edge_set(g: Graph, eids: Iterable[int]) -> str:
    pairs = sorted(g.endpoints(eid) for eid in eids)
    return "\n".join(f"{u} {v}" for u, v in pairs) + ("\n" if pairs else "")


def parse_updates(text: str) -> list[UpdateEvent]:
    events = []
    for lineno, toks in _tokens(text):
        try:
            kind = toks[0]
            if kind == "+e":
                u, v = int(toks[1]), int(toks[2])
                w = checked_weight(float(toks[3]), u, v) if len(toks) > 3 else 1.0
                events.append(UpdateEvent.edge_insert(u, v, w))
            elif kind == "-e":
                events.append(UpdateEvent.edge_delete(int(toks[1]), int(toks[2])))
            elif kind == "+v":
                rest = toks[2:]
                if len(rest) % 2:
                    raise DataError("odd neighbor/weight list")
                vid = int(toks[1])
                nbrs = [int(x) for x in rest[0::2]]
                incident = [(nbr, checked_weight(float(w), vid, nbr))
                            for nbr, w in zip(nbrs, rest[1::2])]
                events.append(UpdateEvent.vertex_insert(vid, incident))
            elif kind == "-v":
                events.append(UpdateEvent.vertex_delete(int(toks[1])))
            else:
                raise DataError(f"unknown update kind {kind!r}")
        except (DataError, ValueError, IndexError) as exc:
            raise DataError(f"update line {lineno}: {exc}") from None
    return events


def emit_updates(events: Iterable[UpdateEvent]) -> str:
    lines = []
    for ev in events:
        if ev.kind == "+e":
            lines.append(f"+e {ev.u} {ev.v} {ev.w!r}")
        elif ev.kind == "-e":
            lines.append(f"-e {ev.u} {ev.v}")
        elif ev.kind == "+v":
            flat = " ".join(f"{n} {w!r}" for n, w in ev.incident)
            lines.append(f"+v {ev.u}{' ' + flat if flat else ''}")
        elif ev.kind == "-v":
            lines.append(f"-v {ev.u}")
        else:
            raise DataError(f"unknown update kind {ev.kind!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def canonical_digest(text: str) -> str:
    import hashlib      # loads OpenSSL; only manifests need it
    canon = "\n".join(line.rstrip() for line in text.splitlines()).strip() + "\n"
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclass
class RunManifest:
    command: str
    parameters: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)   # label -> sha256
    version: str = TOOL_VERSION
    results: dict = field(default_factory=dict)  # set once the run is over

    def add_input(self, label: str, text: str) -> None:
        self.inputs[label] = canonical_digest(text)

    def to_json(self) -> str:
        obj = {"command": self.command, "parameters": self.parameters,
               "inputs": self.inputs, "version": self.version}
        if self.results:
            obj["results"] = self.results
        return json.dumps(obj, indent=1, sort_keys=True)
