"""The streamed random check: its digits, its runs, its oracle, its memory.

Runs are the only chunks: ``add_cases`` runs a check's cases in runs of at
most ``netlist.RUN_LANES`` cases, each starting on a 64-lane word.  Each run
of ``check_random`` draws its input planes' words straight from the PCG64
stream, jumping ahead to its first word, and sets the corner and carry-run
vectors' lanes by bit mask; an exhaustive check's digits are made whole
once.  These tests pin the drawn planes to ``PCG64.random_raw`` and every
case to ``reference.random_cases``, the bit-sliced oracle to ``oracle_add``,
the reports to the run size and to the cases run, the memory to the run and
the plane buffer, not the trial count, and ``add_batch``, the exhaustive
check's packer, to its budget, its read-back of failing cases included.
"""

import dataclasses
import itertools

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st
from test_mismatch_table import CARRY_GROUPS, faulted

from quadder import builders, cli, netlist, verify
from quadder.netlist import NOT, OR, XOR, NetlistBuilder

SEEDS = range(30)
# (trials, width): trials 1, width 1, and trials x width = 1, 2, 3 (mod 4)
SHAPES = ((1, 1), (1, 7), (5, 1), (7, 5), (3, 6), (9, 7), (40, 12))


def _planes(digits):
    """Case-major qudits (cases, rows) laid out as ``add_cases`` documents
    its input planes: one int a plane, the rows' lo planes and then their hi
    planes, bit j of a plane holding case j."""
    weights = [1 << j for j in range(len(digits))]
    return [sum(w for w, d in zip(weights, col) if d >> bit & 1)
            for bit in (0, 1) for col in digits.T.tolist()]


def _lanes(planes, cases):
    """The inverse of ``_planes``, lane by lane: the first ``cases`` lanes of
    int planes as case-major qudits (cases, rows)."""
    k = len(planes) // 2
    return np.array([[2 * (hi >> j & 1) + (lo >> j & 1) for lo, hi in zip(planes[:k], planes[k:])]
                     for j in range(cases)], dtype=np.uint8).reshape(cases, k)


def _structured(n: int) -> int:
    """The corner and carry-run vectors that come before a check's trials."""
    return len(reference.corner_vectors(n)) + 6 * len(reference.carry_run_blocks(n))


def _input_runs(nl, trials, seed):
    """The report of ``check_random`` and each run's input planes, as the
    oracle gets them."""
    runs, oracle = [], verify._oracle_batch
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_oracle_batch", lambda x: runs.append(list(x)) or oracle(x))
        return verify.check_random(nl, trials, seed), runs


@pytest.mark.parametrize("trials, n", SHAPES)
def test_word_digits_equal_integer_draws(trials, n):
    """In one chunk, the lo and hi plane of every input row r, read as ints,
    are their 64-lane words' ``random_raw`` outputs w(4n + 1) + r (lo) and
    w(4n + 1) + 2n + 1 + r (hi, none for cin) outside the vectors' lanes,
    also past the last case: input plane p is output w(4n + 1) + p, but for
    cin's hi plane, the last."""
    nl = reference.built(builders.AdderSpec("ripple", n))
    k = 4 * n + 1
    for seed in SEEDS:
        report, runs = _input_runs(nl, trials, seed)
        [planes] = runs
        assert report.passed and report.cases_run == _structured(n) + trials
        lanes = -(-report.cases_run // 64) * 64
        raw = np.random.PCG64(seed).random_raw(lanes // 64 * k).tolist()
        drawn = ~((1 << _structured(n)) - 1)   # the lanes no vector sets
        assert len(planes) == 2 * (2 * n + 1)
        for r in range(2 * n + 1):
            offsets = (r, 2 * n + 1 + r if r < 2 * n else None)
            for plane, offset in zip((planes[r], planes[2 * n + 1 + r]), offsets):
                words = [raw[w * k + offset] if offset is not None else 0
                         for w in range(lanes // 64)]
                want = int.from_bytes(np.array(words, dtype=np.uint64).tobytes(), "little")
                assert (plane ^ want) & drawn == 0, (seed, r, offset)


@pytest.mark.parametrize("chunk", [64, 128, 192, 1024, netlist.RUN_LANES])
def test_chunked_draws_reproduce_the_one_shot_draws(monkeypatch, chunk):
    """The input planes of every run, read back lane by lane, are the cases
    ``reference.random_cases`` rebuilds from the stream bit by bit: the 18
    corner vectors, the carry-run vectors and then the trials, wherever the
    runs start: inside the carry-run vectors (runs of 64 to 192) or past
    them."""
    monkeypatch.setattr(netlist, "RUN_LANES", chunk)
    for (trials, n), seed in itertools.product([*SHAPES, (130, 3), (67, 33)], SEEDS[:5]):
        report, runs = _input_runs(reference.built(builders.AdderSpec("ripple", n)), trials, seed)
        count = report.cases_run
        assert report.passed and count == _structured(n) + trials
        assert len(runs) == -(-count // chunk)
        got = np.concatenate([_lanes(run, min(chunk, count - lo))
                              for run, lo in zip(runs, range(0, count, chunk))])
        want = [(*a, *b, cin) for a, b, cin in reference.random_cases(n, count, seed)]
        assert np.array_equal(got, np.array(want, dtype=np.uint8)), (trials, n, seed)


def _assert_oracle_matches(a, b, cin):
    """The bit-sliced oracle's S and cout planes, read back lane by lane,
    against the integer oracle."""
    out = verify._oracle_batch(_planes(np.column_stack((a, b, cin))))
    assert len(out) == 2 * (a.shape[1] + 1) and all(type(plane) is int for plane in out)
    for x, y, c, row in zip(a, b, cin, _lanes(out, len(cin))):   # S[1..n], then cout
        s, cout = reference.oracle_add(x.tolist(), y.tolist(), int(c))
        assert row.tolist() == [*s, cout]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bit_sliced_oracle_matches_oracle_add_on_every_case(n):
    cases = np.array([(*a, *b, c) for a in itertools.product(range(4), repeat=n)
                      for b in itertools.product(range(4), repeat=n) for c in (0, 1)], np.uint8)
    _assert_oracle_matches(cases[:, :n].copy(), cases[:, n:2 * n].copy(), cases[:, -1].copy())


@pytest.mark.parametrize("n", [31, 32, 33, 64, 256])
def test_bit_sliced_oracle_matches_oracle_add_on_random_cases(n):
    rng = np.random.default_rng(n)
    a = rng.integers(0, 4, size=(200, n), dtype=np.uint8)
    b = rng.integers(0, 4, size=(200, n), dtype=np.uint8)
    cin = rng.integers(0, 2, size=200, dtype=np.uint8)
    a[:2], b[:2], cin[:2] = 3, 3, 1   # all 3s with cin 1
    a[2], b[2], cin[2] = 3, 0, 1      # a carry through every digit
    _assert_oracle_matches(a, b, cin)


def _inverted_s1(nl):
    """``nl`` with its S[1] port reading a Not of the true S[1]: S[1] is
    wrong in every case and cout right."""
    nodes = (*nl.nodes, netlist.Node(NOT, (nl.s_ports[0],)))
    return dataclasses.replace(nl, nodes=nodes, s_ports=(len(nl.nodes), *nl.s_ports[1:]))


@pytest.mark.parametrize("check", [verify.check_exhaustive,
                                   lambda nl: verify.check_random(nl, 100, 3)],
                         ids=["exhaustive", "random"])
def test_lanes_past_the_last_case_give_no_records(check):
    """Width 1: the 32 exhaustive cases fill half a plane word, and the 18
    corner vectors, 6 carry-run vectors and 100 trials end 60 lanes into the
    second word.  Every
    case gives one record, and no lane past the last case adds one, also
    when a batch has no case."""
    nl = _inverted_s1(reference.built(builders.AdderSpec("ripple", 1)))
    report = check(nl)
    records = report.records
    assert report.cases_run % 64 and len(records) == report.cases_run
    assert (records.signal == 0).all() and (records.actual == 3 - records.expected).all()
    a, b, cin = _random_batch(1, report.cases_run)
    a_bad, b_bad, cin_bad, want, got = netlist.add_batch(nl, a, b, cin, verify._oracle_batch)
    assert np.array_equal(a_bad, a) and np.array_equal(b_bad, b)   # every case, in order
    assert np.array_equal(cin_bad, cin)   # read back from the run's input planes
    assert want.shape == got.shape == (len(cin), 2) and (want[:, 1] == got[:, 1]).all()
    none = netlist.add_batch(nl, a[:0], b[:0], cin[:0], verify._oracle_batch)   # no lane at all
    assert [x.shape for x in none] == [(0, 1), (0, 1), (0,), (0, 2), (0, 2)]


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(kind=st.sampled_from(builders.KINDS), width=st.integers(1, 12), data=st.data())
def test_reports_do_not_depend_on_the_chunk_size(kind, width, data):
    nl = reference.built(builders.AdderSpec(kind, width))
    gates = sorted({nid for group in CARRY_GROUPS for nid in nl.meta["groups"].get(group, ())})
    faults = data.draw(st.lists(st.sampled_from(gates), max_size=3, unique=True)
                       if gates else st.just([]))
    nl = faulted(nl, faults)
    trials, seed = data.draw(st.integers(1, 40)), data.draw(st.integers(0, 2**32 - 1))
    exhaustive = width <= 2
    want = [verify.check_random(nl, trials, seed).to_json()]
    if exhaustive:
        want.append(verify.check_exhaustive(nl).to_json())
    for chunk in (64, 128, 192):   # runs that start in the vectors, and split width 2's 512 cases
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(netlist, "RUN_LANES", chunk)
            got = [verify.check_random(nl, trials, seed).to_json()]
            if exhaustive:
                got.append(verify.check_exhaustive(nl).to_json())
        assert got == want, chunk


@pytest.mark.parametrize("kind", builders.KINDS)
def test_exhaustive_reports_do_not_depend_on_the_chunk_size(monkeypatch, kind):
    """Width 2 has 512 cases: eight runs of 64, or three of 192, the last one
    short."""
    nl = reference.built(builders.AdderSpec(kind, 2))
    gates = sorted(nid for group in CARRY_GROUPS for nid in nl.meta["groups"].get(group, ()))
    for checked in (nl, faulted(nl, gates[:1])):
        want = verify.check_exhaustive(checked).to_json()
        for chunk in (64, 192):
            monkeypatch.setattr(netlist, "RUN_LANES", chunk)
            assert verify.check_exhaustive(checked).to_json() == want, chunk
        monkeypatch.undo()


@pytest.mark.parametrize("chunk", [64, 192, netlist.RUN_LANES])
def test_exhaustive_chunks_hold_the_indexed_cases(monkeypatch, chunk):
    """An exhaustive check makes one ``add_batch`` call, its case k being (a
    word k >> (2n + 1), b word (k >> 1) mod 4^n, cin k & 1), and each run's
    input planes hold its cases start..stop-1, at every exhaustive width.  Runs of
    64 and 192 split the 2 * 4^n-case periods of (b, cin) at width 3 and 4."""
    monkeypatch.setattr(netlist, "RUN_LANES", chunk)
    calls, runs = [], []
    add_batch, oracle = netlist.add_batch, verify._oracle_batch
    monkeypatch.setattr(netlist, "add_batch", lambda *args: calls.append(args) or add_batch(*args))
    monkeypatch.setattr(verify, "_oracle_batch", lambda x: runs.append(x) or oracle(x))
    for n in range(1, verify.EXHAUSTIVE_WIDTH_BOUND + 1):
        calls.clear(), runs.clear()
        assert verify.check_exhaustive(reference.built(builders.AdderSpec("ripple", n))).passed
        words = np.array(list(itertools.product(range(4), repeat=n)), dtype=np.uint8)[:, ::-1]
        k = np.arange(2 * 16**n)
        want = np.column_stack((words[k >> (2 * n + 1)], words[(k >> 1) % 4**n], k & 1))
        [(_, a, b, cin, _)] = calls
        assert a.dtype == b.dtype == cin.dtype == np.uint8
        assert np.array_equal(np.column_stack((a, b, cin)), want), n
        assert len(runs) == -(-k.size // chunk)
        got = np.concatenate([reference.lane_digits(planes, min(chunk, k.size - lo))
                              for planes, lo in zip(runs, range(0, k.size, chunk))])
        assert np.array_equal(got, want), n


def _peak(nl, trials) -> int:
    peak, report = reference.traced_peak(verify.check_random, nl, trials, 1)
    assert report.passed
    return peak


def test_random_check_memory_does_not_grow_with_trials():
    nl = builders.build(builders.AdderSpec("tree", 64))
    nl._plan   # compiles the plan outside the trace
    small, large = _peak(nl, 10**5), _peak(nl, 4 * 10**5)
    assert large <= 1.1 * small, f"{small / 2**20:.1f} -> {large / 2**20:.1f} MiB"


@pytest.mark.parametrize("kind", ["tree", "hybrid"])
def test_random_check_at_256_digits_stays_under_24_mib(kind):
    nl = builders.build(builders.AdderSpec(kind, 256))
    nl._plan   # compiles the plan outside the trace
    peak = _peak(nl, 20000)
    assert peak <= 24 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("kind", ["tree", "hybrid", "ripple"])
def test_random_check_at_256_digits_peaks_within_its_plane_buffer(kind):
    """The 23084 cases of width 256 are one run: the check's peak is its plane
    buffer and at most 6 MiB more, as no full-size digit array is made."""
    nl = builders.build(builders.AdderSpec(kind, 256))
    nl._plan   # compiles the plan outside the trace
    peak, report = reference.traced_peak(verify.check_random, nl, 20000, 5)
    buffer = 16 * nl._plan.slots * -(-report.cases_run // 64)
    assert report.passed
    assert peak <= buffer + 6 * 2**20, \
        f"peak {peak / 2**20:.2f} MiB, buffer {buffer / 2**20:.2f} MiB"


@pytest.mark.parametrize("kind", ["tree", "sparse", "hybrid", "ripple"])
def test_random_check_at_256_digits_peaks_under_8_mib(kind):
    """With each step run beside the first output that needs it, no carry
    network's plan slots outgrow the run's input draw: every kind peaks about
    where ripple does (6.9 MiB), not at 10.4-12.4 MiB."""
    nl = builders.build(builders.AdderSpec(kind, 256))
    nl._plan   # compiles the plan outside the trace
    peak, report = reference.traced_peak(verify.check_random, nl, 20000, 5)
    assert report.passed
    assert peak <= 8 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def _or_of_xor_chain(length: int):
    """Width 1: S[1] is an Or over a chain of Xor gates, each reading the
    one before, and cout the chain's last gate.  The Or reads every link, so
    the plan keeps a slot of planes for each."""
    nb = NetlistBuilder(1)
    ports = a, b, cin = nb.add_input("A[1]"), nb.add_input("B[1]"), nb.add_input("cin")
    links = [nb.add(XOR, a, b)]
    for k in range(length - 1):
        links.append(nb.add(XOR, links[-1], ports[k % 3]))
    return nb.finish([a], [b], cin, [nb.add(OR, *links)], links[-1])


def _count_runs(monkeypatch) -> list:
    """Wraps the step loop: the returned list gets an entry a run."""
    runs, run = [], netlist._run
    monkeypatch.setattr(netlist, "_run", lambda *args: runs.append(run(*args)))
    return runs


def test_plane_buffer_stays_within_the_chunk_budget(monkeypatch):
    """A 6 MiB budget holds fewer than ``RUN_LANES`` cases of this plan: the
    budget sets the runs, and the peak stays within it."""
    nl = _or_of_xor_chain(1000)
    nl._plan   # compiles the plan outside the trace
    want = verify.check_random(nl, 40000, 3)
    monkeypatch.setattr(netlist, "PLANE_BUDGET", 6 * 2**20)
    step = 64 * (netlist.PLANE_BUDGET // (16 * nl._plan.slots))
    assert step < netlist.RUN_LANES
    runs = _count_runs(monkeypatch)
    peak, report = reference.traced_peak(verify.check_random, nl, 40000, 3)
    assert len(runs) == -(-report.cases_run // step)
    assert peak <= 1.1 * netlist.PLANE_BUDGET, f"peak {peak / 2**20:.2f} MiB"
    same = report.to_json() == want.to_json()   # apart: pytest diffs long texts slowly
    assert not report.passed and same


def test_a_plan_past_the_chunk_budget_is_refused(monkeypatch, tmp_path, capsys):
    nl = _or_of_xor_chain(100)
    monkeypatch.setattr(netlist, "PLANE_BUDGET", 16 * nl._plan.slots - 1)   # 64 cases do not fit
    for check in (verify.check_exhaustive, lambda nl: verify.check_random(nl, 10, 1)):
        with pytest.raises(ValueError, match="PLANE_BUDGET"):
            check(nl)
    path = tmp_path / "chain.json"
    path.write_text(netlist.to_json(nl))
    assert cli.main(["verify", "--netlist", str(path), "--random", "10"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "PLANE_BUDGET" in err


def _random_batch(n: int, cases: int):
    rng = np.random.default_rng(cases)
    return (rng.integers(0, 4, size=(cases, n), dtype=np.uint8),
            rng.integers(0, 4, size=(cases, n), dtype=np.uint8),
            rng.integers(0, 2, size=cases, dtype=np.uint8))


def test_add_batch_runs_its_cases_within_the_plane_budget(monkeypatch):
    """60,017 cases of a 1,001-row plan at a 6 MiB budget: three runs of
    392 plane words, the last one ragged, give the failing cases of two
    ``RUN_LANES`` runs while the peak stays within one run's buffer plus
    the failing cases read back, which are almost all of them."""
    nl = _or_of_xor_chain(1000)
    a, b, cin = _random_batch(1, 60017)
    want = netlist.add_batch(nl, a, b, cin, verify._oracle_batch)   # compiles the plan outside the trace
    assert len(want[2]) > len(cin) // 2
    monkeypatch.setattr(netlist, "PLANE_BUDGET", 6 * 2**20)
    runs = _count_runs(monkeypatch)
    for order in "CF":
        runs.clear()
        peak, got = reference.traced_peak(netlist.add_batch, nl, np.asarray(a, order=order),
                                          np.asarray(b, order=order), cin, verify._oracle_batch)
        assert len(runs) == 3 and _same_failures(got, want)
        assert peak <= 1.1 * netlist.PLANE_BUDGET + sum(x.nbytes for x in got), \
            f"peak {peak / 2**20:.2f} MiB"


def _same_failures(got, want) -> bool:
    """Whether two ``add_batch`` results hold the same failing cases and the
    same records: a digit no case of its run gets wrong reads 0 in both the
    expected and the actual sums, so those depend on the runs."""
    same = [np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(got[:3], want[:3])]
    text = verify._collect_mismatches(*got).to_json(), verify._collect_mismatches(*want).to_json()
    return all(same) and text[0] == text[1]


def _batch(nl, cases: int) -> int:
    """Checks ``cases`` random cases of a width-1 netlist by ``add_batch``."""
    netlist.add_batch(nl, *_random_batch(1, cases), verify._oracle_batch)
    return cases


@pytest.mark.parametrize("budget", [netlist.PLANE_BUDGET, 6 * 2**20])
def test_every_run_starts_on_a_word_within_run_lanes(monkeypatch, budget):
    """Every ``source(lo, hi)`` call, from random and exhaustive checks and
    from ``add_batch``, gets a run that starts on a 64-lane word and holds
    at most ``RUN_LANES`` cases and no more than the budget allows; the runs
    cover the cases in order."""
    monkeypatch.setattr(netlist, "PLANE_BUDGET", budget)
    calls, add_cases = [], netlist.add_cases

    def spied(nl, cases, source, oracle):
        calls.append([])
        return add_cases(nl, cases, lambda lo, hi: calls[-1].append((lo, hi)) or source(lo, hi),
                         oracle)

    monkeypatch.setattr(netlist, "add_cases", spied)
    chain = _or_of_xor_chain(1000)
    ripple = reference.built(builders.AdderSpec("ripple", 4))
    for nl, run in ((chain, lambda: verify.check_random(chain, 70000, 2).cases_run),
                    (chain, lambda: _batch(chain, 70017)),
                    (ripple, lambda: verify.check_exhaustive(ripple).cases_run)):
        calls.clear()
        count = run()
        [spans] = calls
        step = min(netlist.RUN_LANES, 64 * (budget // (16 * nl._plan.slots)))
        assert all(lo % 64 == 0 and hi - lo <= step <= netlist.RUN_LANES for lo, hi in spans)
        assert [lo for lo, _ in spans] == [0, *(hi for _, hi in spans[:-1])]
        assert spans[-1][1] == count and len(spans) == -(-count // step)


@pytest.mark.parametrize("n", [9, 64])
def test_runs_give_the_sums_of_one_run_in_either_layout(monkeypatch, n):
    """Runs of two plane words, the last one short, across a wide batch of a
    faulted tree: the failing cases, their sums read back, are those of one
    run."""
    nl = reference.built(builders.AdderSpec("tree", n))
    gates = sorted(nid for group in CARRY_GROUPS for nid in nl.meta["groups"].get(group, ()))
    nl = faulted(nl, gates[:1])
    a, b, cin = _random_batch(n, 1000 + n)
    want = netlist.add_batch(nl, a, b, cin, verify._oracle_batch)
    assert 0 < len(want[2]) < len(cin)
    monkeypatch.setattr(netlist, "PLANE_BUDGET", 2 * 16 * nl._plan.slots + 15)
    runs = _count_runs(monkeypatch)
    for order in "CF":
        got = netlist.add_batch(nl, np.asarray(a, order=order), np.asarray(b, order=order), cin,
                                verify._oracle_batch)
        assert _same_failures(got, want)
    assert len(runs) == 2 * -(-len(cin) // 128)


def test_add_batch_refuses_a_plan_past_the_plane_budget(monkeypatch):
    nl = _or_of_xor_chain(100)
    monkeypatch.setattr(netlist, "PLANE_BUDGET", 16 * nl._plan.slots - 1)   # 64 cases do not fit
    runs = _count_runs(monkeypatch)
    with pytest.raises(ValueError, match="PLANE_BUDGET"):
        netlist.add_batch(nl, np.uint8([[1]]), np.uint8([[2]]), np.uint8([1]), verify._oracle_batch)
    assert not runs
