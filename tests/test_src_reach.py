"""Every function in ``src/quadder`` is reached by some CLI run.

A corpus of CLI runs (every command, every kind at widths 1, 3 and 5, DOT
output, exhaustive and random checks, one at width 9, a faulty document
and the error paths) goes through ``quadder.cli.main`` in one subprocess.
That process installs a profiler before it imports quadder, so the calls
made at import time count too.  A function of the package that no run
reaches fails the test unless
``ALLOWED`` names it with its reason: code that only tests use belongs in
``tests/reference.py``.  An ``ALLOWED`` entry that a run reaches, or that
names a function no longer defined, fails it too.
"""

import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

from quadder import builders, netlist

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "quadder"

# Unreached by the CLI, kept for their callers outside it.
ALLOWED = {
    "netlist.cone": "wrapped as the benchmark's traced layer netlist.cone (bench/tracing.py), "
                    "which tests/test_traced_layers.py requires; no CLI run or benchmark job "
                    "reaches it",
    "netlist.lower_fanin2": "run by the benchmark's document workload (bench/workloads.py)",
    "netlist._split": "lower_fanin2's balanced split, reached only through it",
}

CHILD = r"""
import contextlib, io, json, sys

reached = set()


def profile(frame, event, arg):
    if event == "call":
        reached.add(frame.f_code)


corpus = json.load(sys.stdin)
sys.setprofile(profile)
import quadder.cli

codes = []
for argv in corpus:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(quadder.cli.main(argv))
sys.setprofile(None)
json.dump({"file": quadder.__file__, "codes": codes,
           "reached": sorted({(c.co_filename, c.co_qualname) for c in reached})}, sys.stdout)
"""


def _functions(path: Path):
    """The qualified names of the functions defined in a source file, nested
    ones included; lambdas, comprehensions and class bodies are not
    functions here."""
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
            yield code.co_qualname


def _documents(tmp: Path) -> dict:
    """Stored documents for the corpus: a correct and a faulty width-3 ripple
    adder, and three that import must reject."""
    doc = json.loads(netlist.to_json(builders.build(builders.AdderSpec("ripple", 3))))
    docs = {"good": doc}
    faulty = json.loads(json.dumps(doc))
    node = faulty["nodes"][faulty["ports"]["S"][1]]
    assert node["kind"] == "xor"
    node["kind"] = "or"
    docs["faulty"] = faulty
    bad_fan_in = json.loads(json.dumps(doc))
    gate = next(n for n in bad_fan_in["nodes"] if n["kind"] == "and")
    gate["inputs"] = gate["inputs"][:1]
    docs["bad-fan-in"] = bad_fan_in
    dangling = json.loads(json.dumps(doc))
    next(n for n in dangling["nodes"] if n["inputs"])["inputs"][0] = len(dangling["nodes"])
    docs["dangling"] = dangling
    paths = {}
    for name, value in docs.items():
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps(value), encoding="utf-8")
    paths["malformed"] = tmp / "malformed.json"
    paths["malformed"].write_text("{", encoding="utf-8")
    return {name: str(path) for name, path in paths.items()}


def _corpus(tmp: Path) -> list:
    """(argv, exit code) for every run."""
    docs = _documents(tmp)
    runs = []
    for kind in builders.KINDS:
        for n in ("1", "3", "5"):
            spec = ["--kind", kind, "--width", n]
            runs += [(["build", *spec, "--out", str(tmp / f"{kind}{n}.json")], 0),
                     (["analyze", *spec], 0),
                     (["verify", *spec, "--random", "40", "--seed", "3"], 0)]
            if n != "5":
                runs.append((["verify", *spec, "--exhaustive"], 0))
        runs.append((["eval", "--netlist", str(tmp / f"{kind}3.json"), "--a", "123", "--b", "321",
                      "--cin", "1"], 0))
    runs += [
        (["build", "--kind", "single", "--width", "3", "--format", "dot",
          "--out", str(tmp / "s3.dot")], 0),
        (["build", "--kind", "sparse", "--width", "5", "--sparsity", "2",
          "--out", str(tmp / "sparse.json")], 0),
        (["analyze", "--kind", "hybrid", "--width", "5", "--block", "2", "--mask", "included",
          "--csv", str(tmp / "h5.csv")], 0),
        (["sweep", "--kinds", "ripple,single,tree,sparse,hybrid", "--widths", "1,3..5",
          "--csv", str(tmp / "sweep.csv")], 0),
        (["sweep", "--kinds", "tree", "--widths", "3"], 0),
        (["verify", "--kind", "tree", "--width", "9", "--random", "40"], 0),
        (["verify", "--netlist", docs["good"], "--random", "40", "--out", str(tmp / "r.json")], 0),
        (["verify", "--netlist", docs["faulty"], "--exhaustive"], 1),
        (["verify", "--netlist", docs["faulty"], "--random", "40", "--seed", "9"], 1),
        (["eval", "--netlist", docs["faulty"], "--a", "123", "--b", "321"], 0),
        (["eval", "--netlist", docs["malformed"], "--a", "123", "--b", "321"], 2),
        (["verify", "--netlist", docs["bad-fan-in"], "--exhaustive"], 2),
        (["verify", "--netlist", docs["dangling"], "--exhaustive"], 2),
        (["eval", "--netlist", str(tmp), "--a", "123", "--b", "321"], 2),
        (["eval", "--netlist", docs["good"], "--a", "12", "--b", "321"], 2),
        (["eval", "--netlist", docs["good"], "--a", "124", "--b", "321"], 2),
        (["build", "--kind", "carry-save", "--width", "3", "--out", str(tmp / "x.json")], 2),
        (["build", "--kind", "tree", "--width", "3", "--block", "2",
          "--out", str(tmp / "x.json")], 2),
        (["verify", "--kind", "tree", "--width", "5", "--exhaustive"], 2),
        (["verify", "--kind", "tree", "--width", "3", "--exhaustive", "--seed", "1"], 2),
        (["verify", "--kind", "tree", "--width", "3", "--random", "0"], 2),
        (["verify", "--kind", "tree", "--width", "3", "--random", str(2**40)], 2),
        (["verify", "--netlist", docs["good"], "--kind", "tree", "--exhaustive"], 2),
        (["verify", "--netlist", docs["good"], "--block", "2", "--exhaustive"], 2),
        (["verify", "--random", "5"], 2),
        (["sweep", "--kinds", "tree", "--widths", "3..1"], 2),
        (["analyze", "--width", "3"], 2),
    ]
    return runs


def test_every_src_function_is_reached_by_the_cli(tmp_path):
    corpus = _corpus(tmp_path)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    child = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps([a for a, _ in corpus]),
                           capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    out = json.loads(child.stdout)
    assert Path(out["file"]).resolve().parent == PACKAGE
    assert [(argv, code) for (argv, _), code in zip(corpus, out["codes"])] == corpus

    reached = {f"{Path(file).stem}.{name}" for file, name in out["reached"]
               if Path(file).resolve().parent == PACKAGE}
    defined = {f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
               for name in _functions(path)}
    unreached = sorted(name for name in defined - reached
                       if not any(name == ok or name.startswith(f"{ok}.<locals>.")
                                  for ok in ALLOWED))
    assert not unreached, f"src functions no CLI run reaches: {unreached}"
    assert not set(ALLOWED) - defined, "the allowlist names a function that is gone"
    assert not set(ALLOWED) & reached, f"a CLI run reaches {sorted(set(ALLOWED) & reached)}"
