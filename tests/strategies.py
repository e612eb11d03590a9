"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from quadder.netlist import AND, MULTI_KINDS, UNARY_KINDS, NetlistBuilder


class RepeatingBuilder(NetlistBuilder):
    """A builder that keeps repeated gates: it forgets every earlier node
    before it interns the next, so every add appends a new node."""

    def _intern(self, node, group=None):
        self._memo.clear()
        return super()._intern(node, group)


@st.composite
def netlists(draw, width=1):
    """Small random netlists: And(x, Const 1) masks (the constant on either
    side), wide gates, unary chains and constants 0..3.  A prefix gate reads
    an earlier gate's inputs (fan-in 3 or more) and then 1-3 more, with that
    gate's kind or another; in half of them one input after the first is
    drawn anew.  The port inputs are made in the order cin, A[1], B[1],
    A[2], B[2], ..., so port slots and node ids disagree; S and cout are
    drawn from every node, so the earlier gate of a prefix gate in the cone
    is often outside it."""
    nb = RepeatingBuilder(width)
    cin = nb.add_input("cin")
    a_ports, b_ports = [], []
    for i in range(1, width + 1):
        a_ports.append(nb.add_input(f"A[{i}]"))
        b_ports.append(nb.add_input(f"B[{i}]"))
    ids = [cin, *a_ports, *b_ports]
    ids += [nb.add_const(v) for v in draw(st.lists(st.sampled_from([0, 1, 1, 2, 3]),
                                                   min_size=1, max_size=3))]
    ones = [i for i in ids if nb.nodes[i].value == 1] or [nb.add_const(1)]
    wide = []   # ids of the gates of fan-in 3 or more
    for _ in range(draw(st.integers(1, 25))):
        pick = st.integers(0, len(nb.nodes) - 1)
        shape = draw(st.sampled_from(["mask", "mask", "multi", "unary", "prefix", "prefix"]))
        if shape == "mask":
            x, one = draw(pick), draw(st.sampled_from(ones))
            nb.add(AND, *((one, x) if draw(st.booleans()) else (x, one)))
        elif shape == "prefix" and wide:
            head = nb.nodes[draw(st.sampled_from(wide))]
            kind = draw(st.sampled_from([head.kind, *sorted(MULTI_KINDS)]))   # its kind half the time
            ins = [*head.inputs, *draw(st.lists(pick, min_size=1, max_size=3))]
            if draw(st.booleans()):   # a near miss: the same first input, not the same prefix
                ins[draw(st.integers(1, len(head.inputs) - 1))] = draw(pick)
            wide.append(nb.add(kind, *ins))
        elif shape in ("multi", "prefix"):
            ins = draw(st.lists(pick, min_size=2, max_size=6))
            nid = nb.add(draw(st.sampled_from(sorted(MULTI_KINDS))), *ins)
            if len(ins) > 2:
                wide.append(nid)
        else:
            nb.add(draw(st.sampled_from(sorted(UNARY_KINDS))), draw(pick))
    top = len(nb.nodes) - 1
    node = st.integers(0, top)
    signals = {f"x{k}": nid for k, nid in enumerate(draw(st.lists(node, max_size=5)))}
    groups = {"g": draw(st.lists(node, max_size=12)), "h": []}
    return nb.finish(a_ports, b_ports, cin, [draw(node) for _ in range(width)], top,
                     signals=signals, meta={"groups": groups})
