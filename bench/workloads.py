"""The four workloads: seeded inputs, timed jobs and known-answer checks.

Every job calls quadder's public surface in-process: ``quadder.cli.main``
with stdout captured, or the library for the steps the CLI lacks.  Reference
answers come from this file's own integer arithmetic and the paper's delay
formulas, never from quadder's oracle.

Known defect, left visible: the CLI's ``--block`` defaults to 4, so
``verify``/``analyze --kind hybrid --width n`` exits 2 for n < 4.  Every
hybrid job passes ``--block min(4, n)``, the block that ``analysis.sweep``
uses.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import quadder.builders
import quadder.cli
import quadder.netlist

KINDS = ("ripple", "single_stage", "tree", "sparse", "hybrid")
RANDOM_TRIALS = 20000
EXHAUSTIVE_WIDTHS = (1, 2, 3, 4)
FAULTY_WIDTHS = (3, 64)   # exhaustive, random
FAULTY_TRIALS = 2000
SWEEP_WIDTHS = tuple(range(1, 65))
EVALS_PER_DOCUMENT = 4


class WrongAnswer(Exception):
    """A job's output disagrees with the known answer."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


@dataclass
class Job:
    key: str                         # the job type, unique within its workload
    label: str
    run: Callable[[], object]        # timed: the calls into quadder
    check: Callable[[object], int]   # untimed: raises WrongAnswer, returns work units


# --- reference arithmetic and formulas (independent of quadder) ---


def digits_value(digits) -> int:
    """Value of a least-significant-first base-4 digit list."""
    return sum(d << (2 * i) for i, d in enumerate(digits))


def reference_add(a, b, cin: int) -> tuple[list[int], int]:
    total = digits_value(a) + digits_value(b) + cin
    n = len(a)
    return [(total >> (2 * i)) & 3 for i in range(n)], total >> (2 * n)


def paper_delay(kind: str, n: int) -> int | None:
    """The paper's unit-delay formulas; None where it gives none."""
    if kind == "ripple":
        return 5 * n
    if kind == "single_stage":
        return 6
    if kind == "tree" and n >= 2:
        return 4 + 2 * (n - 1).bit_length()
    return None


def random_widths(kind: str) -> tuple[int, ...]:
    # single_stage grows as n^2, so it stops at 64.
    return (16, 32, 64) if kind == "single_stage" else (16, 64, 256)


def spec_flags(kind: str, n: int) -> list[str]:
    flags = ["--kind", kind, "--width", str(n)]
    if kind == "hybrid":
        flags += ["--block", str(min(4, n))]
    return flags


def spec(kind: str, n: int) -> quadder.builders.AdderSpec:
    if kind == "hybrid":
        return quadder.builders.AdderSpec(kind, n, block=min(4, n))
    return quadder.builders.AdderSpec(kind, n)


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run ``quadder`` in-process; the exit code and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = quadder.cli.main(argv)
    return code, out.getvalue()


def msb_text(digits) -> str:
    return "".join(str(d) for d in reversed(digits))


# --- checkers: pure functions of the job's parameters and its result ---


def check_verify_report(result, *, kind, n, exhaustive, trials, want_code):
    code, out = result
    expect(code == want_code, f"exit code {code}, want {want_code}")
    rep = json.loads(out)
    expect(rep["passed"] is (want_code == 0), f"passed={rep['passed']} with exit {code}")
    expect(rep["kind"] == kind and rep["width"] == n,
           f"report names {rep['kind']} width {rep['width']}")
    if exhaustive:
        expect(rep["cases_run"] == 2 * 16**n, f"cases_run {rep['cases_run']}")
    else:
        expect(rep["cases_run"] >= trials, f"cases_run {rep['cases_run']} < {trials}")
    return rep


def check_verify_pass(result, *, kind, n, exhaustive, trials) -> int:
    rep = check_verify_report(result, kind=kind, n=n, exhaustive=exhaustive,
                              trials=trials, want_code=0)
    expect(rep["mismatches"] == [], "mismatches reported for a correct adder")
    return rep["cases_run"] * n


def check_faulty(result, *, kind, n, exhaustive, trials, signal) -> int:
    """``signal`` is the faulted output, or None for the correct document."""
    rep = check_verify_report(result, kind=kind, n=n, exhaustive=exhaustive,
                              trials=trials, want_code=0 if signal is None else 1)
    records = rep["mismatches"]
    if signal is None:
        expect(records == [], "mismatches reported for a correct document")
        return 0
    expect(records, "fault not detected")
    for r in records:
        expect(r["signal"] == signal, f"mismatch names {r['signal']}, fault is at {signal}")
    for r in records[:: max(1, len(records) // 64)]:
        expect(len(r["a"]) == n and len(r["b"]) == n, "record digit count")
        s, cout = reference_add(r["a"], r["b"], r["cin"])
        want = cout if signal == "cout" else s[int(signal[2:-1]) - 1]
        expect(r["expected"] == want, f"record expects {r['expected']}, integer sum gives {want}")
        expect(r["actual"] != want, "record's actual value equals the expected one")
    return len(records)


CSV_COLUMNS = ("kind,n,cf_delay,meas_delay,cf_gates,meas_gates,"
               "cf_inputs,meas_inputs,max_fan_in,mask_counting,signal_scope").split(",")


def check_analyze(result, *, kind, n) -> int:
    code, out = result
    expect(code == 0, f"exit code {code}, want 0")
    lines = out.splitlines()
    expect(len(lines) >= 2 and lines[0].split(",") == CSV_COLUMNS, "CSV header")
    fields = lines[1].split(",")
    expect(len(fields) == len(CSV_COLUMNS), f"CSV row has {len(fields)} fields")
    row = dict(zip(CSV_COLUMNS, fields))
    expect(row["kind"] == kind and row["n"] == str(n), f"row is {row['kind']} n={row['n']}")
    has_form = kind in ("ripple", "single_stage", "tree")
    for col in ("meas_delay", "meas_gates", "meas_inputs", "max_fan_in"):
        expect(row[col].isdigit(), f"{col}={row[col]!r}")
    for col in ("cf_delay", "cf_gates", "cf_inputs"):
        expect(row[col].isdigit() if has_form else row[col] == "", f"{col}={row[col]!r}")
    expect(row["mask_counting"] == "excluded" and row["signal_scope"] == "carry-network",
           "measurement convention columns")
    delay = paper_delay(kind, n)
    if delay is not None:
        expect(int(row["meas_delay"]) == delay, f"measured delay {row['meas_delay']}, paper {delay}")
        expect(int(row["cf_delay"]) == delay, f"closed-form delay {row['cf_delay']}, paper {delay}")
    expect(all(line.startswith("# ") for line in lines[2:]), "note lines")
    return 1


def check_document(result, *, kind, n, evals, lib_case) -> int:
    (build_code, build_out), eval_results, nl, lowered, (s_word, cout) = result
    expect(build_code == 0, f"build exit code {build_code}")
    expect(build_out.startswith(f"{kind} width={n} gates="), f"build summary {build_out!r}")
    for (a, b, cin), (code, out) in zip(evals, eval_results, strict=True):
        expect(code == 0, f"eval exit code {code}")
        s, c = reference_add(a, b, cin)
        expect(out == f"S={msb_text(s)} C={c}\n", f"eval printed {out.strip()!r}")
    s, c = reference_add(*lib_case)
    expect(list(s_word) == s and cout == c, "library sum on the lowered netlist")
    expect(nl.width == n and lowered.width == n, "document width")
    expect(max(len(node.inputs) for node in lowered.nodes) <= 2, "lowered fan-in above 2")
    return len(nl.nodes)


# --- workloads ---


class Workload:
    """The workload's job list, made from the seed: one job per job type.

    A run repeats the same list in every pass, so each job is timed on
    identical inputs several times.
    """

    name = ""
    work_unit = ""
    throughput = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.jobs = self.make_jobs(random.Random(f"{self.name}:{seed}"))

    def make_jobs(self, rng: random.Random) -> list[Job]:
        raise NotImplementedError

    def provenance(self) -> dict:
        raise NotImplementedError


class VerifyPass(Workload):
    name = "verify_pass"
    work_unit = "digit-adds"
    throughput = "digit_adds_per_s"

    def make_jobs(self, rng):
        jobs = []
        for kind in KINDS:
            for n in random_widths(kind):
                argv = ["verify", *spec_flags(kind, n), "--random", str(RANDOM_TRIALS),
                        "--seed", str(rng.randrange(2**31))]
                jobs.append(self._job(argv, kind, n, exhaustive=False))
            for n in EXHAUSTIVE_WIDTHS:
                argv = ["verify", *spec_flags(kind, n), "--exhaustive"]
                jobs.append(self._job(argv, kind, n, exhaustive=True))
        return jobs

    @staticmethod
    def _job(argv, kind, n, exhaustive):
        mode = "exhaustive" if exhaustive else "random"
        return Job(f"{kind} {n} {mode}", " ".join(argv), lambda: call_cli(argv),
                   lambda r: check_verify_pass(r, kind=kind, n=n, exhaustive=exhaustive,
                                               trials=RANDOM_TRIALS))

    def provenance(self):
        return {"kinds": KINDS,
                "random_widths": {k: random_widths(k) for k in KINDS},
                "random_trials": RANDOM_TRIALS,
                "exhaustive_widths": EXHAUSTIVE_WIDTHS}


class VerifyFaulty(Workload):
    name = "verify_faulty"
    work_unit = "mismatch records"
    throughput = "mismatches_per_s"

    def make_jobs(self, rng):
        # Per kind, at both widths: the correct document, an S[j] fault with
        # j drawn from the seed, and the carry-out fault.  The corner vectors
        # expose both faults.
        self.sum_faults = {}
        jobs = []
        for kind in KINDS:
            variants = {"correct": [], "S[j]": [], "cout": []}
            for n in FAULTY_WIDTHS:
                doc = json.loads(quadder.netlist.to_json(quadder.builders.build(spec(kind, n))))
                j = rng.randint(1, n)
                self.sum_faults[f"{kind}-{n}"] = j
                variants["correct"].append((self._write(doc, f"{kind}-{n}-ok"), None))
                variants["S[j]"].append((self._write(fault_sum_or(doc, j), f"{kind}-{n}-S{j}"),
                                         f"S[{j}]"))
                variants["cout"].append((self._write(fault_cout_mask(doc), f"{kind}-{n}-cout"),
                                         "cout"))
            jobs += [self._job(kind, variant, docs, rng) for variant, docs in variants.items()]
        return jobs

    def _write(self, doc: dict, stem: str) -> str:
        path = self.workdir / f"{stem}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    @staticmethod
    def _job(kind, variant, docs, rng):
        """One document variant at both widths: exhaustively at the small
        width, with random trials at the large one."""
        (small, _), (large, _) = docs
        argvs = [["verify", "--netlist", small, "--exhaustive"],
                 ["verify", "--netlist", large, "--random", str(FAULTY_TRIALS),
                  "--seed", str(rng.randrange(2**31))]]

        def check(results):
            return sum(check_faulty(res, kind=kind, n=n, exhaustive=n == FAULTY_WIDTHS[0],
                                    trials=FAULTY_TRIALS, signal=signal)
                       for res, n, (_, signal) in zip(results, FAULTY_WIDTHS, docs, strict=True))

        return Job(f"{kind} {variant}", " ; ".join(" ".join(a) for a in argvs),
                   lambda: [call_cli(a) for a in argvs], check)

    def provenance(self):
        return {"kinds": KINDS,
                "widths": {"exhaustive": FAULTY_WIDTHS[0], "random": FAULTY_WIDTHS[1]},
                "random_trials": FAULTY_TRIALS,
                "sum_faults": self.sum_faults}


def _with_kind(doc: dict, nid: int, kind: str) -> dict:
    """A copy of ``doc`` with node ``nid`` changed to a ``kind`` gate."""
    nodes = list(doc["nodes"])
    nodes[nid] = {**nodes[nid], "kind": kind}
    return {**doc, "nodes": nodes}


def fault_sum_or(doc: dict, j: int) -> dict:
    """Turn the S[j] port's XOR into an OR."""
    nid = doc["ports"]["S"][j - 1]
    if doc["nodes"][nid]["kind"] != "xor":
        raise RuntimeError(f"S[{j}] is a {doc['nodes'][nid]['kind']} gate, expected xor")
    return _with_kind(doc, nid, "or")


def fault_cout_mask(doc: dict) -> dict:
    """Turn the carry-out mask And(x, 1) into Or(x, 1)."""
    nid = doc["ports"]["cout"]
    node = doc["nodes"][nid]
    consts = [doc["nodes"][i].get("value") for i in node["inputs"]]
    if node["kind"] != "and" or len(consts) != 2 or 1 not in consts:
        raise RuntimeError("carry-out is not a mask And(x, 1)")
    return _with_kind(doc, nid, "or")


class Sweep(Workload):
    name = "sweep"
    work_unit = "rows"
    throughput = "rows_per_s"

    def make_jobs(self, rng):
        jobs = []
        for kind in KINDS:
            for n in SWEEP_WIDTHS:
                argv = ["analyze", *spec_flags(kind, n)]
                jobs.append(Job(f"{kind} {n}", " ".join(argv), lambda argv=argv: call_cli(argv),
                                lambda r, kind=kind, n=n: check_analyze(r, kind=kind, n=n)))
        return jobs

    def provenance(self):
        return {"kinds": KINDS, "widths": [SWEEP_WIDTHS[0], SWEEP_WIDTHS[-1]]}


class Document(Workload):
    name = "document"
    work_unit = "netlist nodes"
    throughput = "nodes_per_s"

    def make_jobs(self, rng):
        jobs = []
        for kind in KINDS:
            for n in random_widths(kind):
                cases = [([rng.randrange(4) for _ in range(n)],
                          [rng.randrange(4) for _ in range(n)], rng.randrange(2))
                         for _ in range(EVALS_PER_DOCUMENT + 1)]
                jobs.append(self._job(kind, n, cases[:-1], cases[-1]))
        return jobs

    def _job(self, kind, n, evals, lib_case):
        path = str(self.workdir / f"{kind}-{n}.json")
        build_argv = ["build", *spec_flags(kind, n), "--out", path]
        eval_argvs = [["eval", "--netlist", path, "--a", msb_text(a), "--b", msb_text(b),
                       "--cin", str(cin)] for a, b, cin in evals]

        def run():
            built = call_cli(build_argv)
            evaluated = [call_cli(argv) for argv in eval_argvs]
            nl = quadder.netlist.from_json(Path(path).read_text(encoding="utf-8"))
            lowered = quadder.netlist.lower_fanin2(nl)
            return built, evaluated, nl, lowered, quadder.netlist.evaluate_words(lowered, *lib_case)

        return Job(f"{kind} {n}", " ".join(build_argv), run,
                   lambda r: check_document(r, kind=kind, n=n, evals=evals, lib_case=lib_case))

    def provenance(self):
        return {"kinds": KINDS, "widths": {k: random_widths(k) for k in KINDS},
                "evals_per_document": EVALS_PER_DOCUMENT}


WORKLOADS = {w.name: w for w in (VerifyPass, VerifyFaulty, Sweep, Document)}


def probe(workdir: Path) -> None:
    """One tiny call through every traced layer: warms lazy set-up before
    timing, and in a traced run shows which wrappers the public surface
    reaches."""
    path = str(workdir / "probe.json")
    for argv in (["build", "--kind", "tree", "--width", "2", "--out", path],
                 ["eval", "--netlist", path, "--a", "12", "--b", "31"],
                 ["verify", "--kind", "tree", "--width", "2", "--exhaustive"],
                 ["analyze", "--kind", "tree", "--width", "2"]):
        code, _ = call_cli(argv)
        if code != 0:
            raise RuntimeError(f"probe {' '.join(argv)} exited {code}")
    nl = quadder.netlist.from_json(Path(path).read_text(encoding="utf-8"))
    quadder.netlist.evaluate_words(quadder.netlist.lower_fanin2(nl), [1, 2], [3, 0], 1)


# --- self-check of the checkers ---


def selfcheck() -> list[str]:
    """Feed every checker a right answer and deliberately wrong ones.

    Returns a description of each case the checkers got wrong (empty when
    they accept every right answer and count every wrong one as an error).
    """
    a, b, cin = [3, 1, 2], [2, 2, 3], 1
    s, c = reference_add(a, b, cin)
    flipped = list(s)
    flipped[1] ^= 1

    def report(passed, records, n=3):
        return json.dumps({"mode": "exhaustive", "kind": "tree", "width": n,
                           "cases_run": 2 * 16**n, "seed": None, "passed": passed,
                           "mismatches": records, "divergences": []})

    def record(signal, expected, actual):
        return {"a": a, "b": b, "cin": cin, "signal": signal,
                "expected": expected, "actual": actual}

    vp = dict(kind="tree", n=3, exhaustive=True, trials=0)
    # S[1] and S[3] of this sum are equal, so a record naming S[1] for a
    # fault at S[3] carries a plausible value and only its name is wrong.
    assert s[0] == s[2] != s[1]
    fault = dict(vp, signal="S[3]")
    good_row = "\n".join([",".join(CSV_COLUMNS),
                          "tree,3,8,8,12,12,24,24,3,excluded,carry-network", "# note"]) + "\n"
    nl = quadder.builders.build(spec("ripple", 3))
    doc_ok = ((0, "ripple width=3 gates=39 depth=15\n"), [(0, f"S={msb_text(s)} C={c}\n")],
              nl, quadder.netlist.lower_fanin2(nl), (s, c))
    doc_flipped = (doc_ok[0], [(0, f"S={msb_text(flipped)} C={c}\n")], *doc_ok[2:])
    doc_args = dict(kind="ripple", n=3, evals=[(a, b, cin)], lib_case=(a, b, cin))

    cases = [
        ("verify_pass, right answer", True, lambda: check_verify_pass((0, report(True, [])), **vp)),
        ("verify_pass, wrong exit code", False,
         lambda: check_verify_pass((1, report(True, [])), **vp)),
        ("verify_faulty, right answer", True,
         lambda: check_faulty((1, report(False, [record("S[3]", s[2], s[2] ^ 1)])), **fault)),
        ("verify_faulty, mismatch names the wrong signal", False,
         lambda: check_faulty((1, report(False, [record("S[1]", s[0], s[0] ^ 1)])), **fault)),
        ("verify_faulty, record expects a flipped sum digit", False,
         lambda: check_faulty((1, report(False, [record("S[3]", s[2] ^ 1, s[2])])), **fault)),
        ("verify_faulty, wrong exit code", False,
         lambda: check_faulty((0, report(False, [record("S[3]", s[2], s[2] ^ 1)])), **fault)),
        ("sweep, right answer", True, lambda: check_analyze((0, good_row), kind="tree", n=3)),
        ("sweep, wrong delay", False,
         lambda: check_analyze((0, good_row.replace(",8,8,", ",8,9,")), kind="tree", n=3)),
        ("sweep, wrong exit code", False,
         lambda: check_analyze((2, good_row), kind="tree", n=3)),
        ("document, right answer", True, lambda: check_document(doc_ok, **doc_args)),
        ("document, flipped sum digit", False, lambda: check_document(doc_flipped, **doc_args)),
        ("document, wrong exit code", False,
         lambda: check_document(((2, ""), *doc_ok[1:]), **doc_args)),
    ]
    failures = []
    for label, right, fn in cases:
        try:
            fn()
            accepted = True
        except WrongAnswer:
            accepted = False
        if accepted != right:
            failures.append(f"{label}: {'rejected' if right else 'accepted'}")
    return failures
