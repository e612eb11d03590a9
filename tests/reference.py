"""Plain reference versions of the document writer and the fan-in lowering.

``netlist.to_json`` writes its text from templates and ``netlist.lower_fanin2``
splits each distinct wide gate once; these are the direct forms they must
match byte for byte.
"""

import json

from quadder.netlist import DOC_VERSION, MULTI_KINDS, Netlist, NetlistBuilder


def to_json(nl: Netlist) -> str:
    """The document as a dict, written by ``json.dumps(doc, indent=2)``."""
    nodes = []
    for nid, node in enumerate(nl.nodes):
        entry: dict = {"id": nid, "kind": node.kind, "inputs": list(node.inputs)}
        if node.value is not None:
            entry["value"] = node.value
        if node.name is not None:
            entry["name"] = node.name
        nodes.append(entry)
    meta = {k: v for k, v in nl.meta.items() if k not in ("kind", "params")}
    doc = {
        "version": DOC_VERSION,
        "kind": nl.meta.get("kind", "custom"),
        "width": nl.width,
        "params": nl.meta.get("params", {}),
        "nodes": nodes,
        "ports": {
            "A": list(nl.a_ports),
            "B": list(nl.b_ports),
            "cin": nl.cin_port,
            "S": list(nl.s_ports),
            "cout": nl.cout_port,
        },
        "signals": dict(nl.signals),
        "meta": meta,
    }
    return json.dumps(doc, indent=2) + "\n"


def lower_fanin2(nl: Netlist) -> Netlist:
    """Every wide gate split recursively, shared sub-trees found again by
    interning each time."""
    nb = NetlistBuilder(nl.width)
    remap: list = []     # old id -> new id
    produced: list = []  # old id -> list of new ids created for it

    def split(kind: str, ids: list, created: list) -> int:
        if len(ids) == 1:
            return ids[0]
        mid = len(ids) // 2
        nid = nb.add(kind, split(kind, ids[:mid], created), split(kind, ids[mid:], created))
        created.append(nid)
        return nid

    for node in nl.nodes:
        if node.kind in MULTI_KINDS:
            created: list = []
            new = split(node.kind, [remap[i] for i in node.inputs], created)
        else:
            new = nb._intern(node._replace(inputs=tuple(remap[i] for i in node.inputs)))
            created = [new]
        remap.append(new)
        produced.append(created)

    signals = {name: remap[nid] for name, nid in nl.signals.items()}
    meta = dict(nl.meta)
    if "groups" in meta:
        meta["groups"] = {
            g: sorted({new for old in ids for new in produced[old]})
            for g, ids in meta["groups"].items()
        }
    meta["lowered"] = "fanin2"
    return nb.finish(
        [remap[i] for i in nl.a_ports],
        [remap[i] for i in nl.b_ports],
        remap[nl.cin_port],
        [remap[i] for i in nl.s_ports],
        remap[nl.cout_port],
        signals=signals,
        meta=meta,
    )
