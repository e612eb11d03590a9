"""Command-line integration: flows, exit codes, determinism."""

import json
import time

import pytest

from quadder import builders, netlist
from quadder.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_writes_netlist_and_summary(tmp_path, capsys):
    out = tmp_path / "t7.json"
    code, stdout, _ = run(capsys, "build", "--kind", "tree", "--width", "7",
                          "--out", str(out))
    assert code == 0
    assert "depth=10" in stdout
    nl = netlist.from_json(out.read_text())
    assert nl.width == 7 and nl.meta["kind"] == "tree"


def test_build_validation_and_minimal_cases(tmp_path, capsys):
    code, _, err = run(capsys, "build", "--kind", "sparse", "--width", "6",
                       "--sparsity", "0", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "sparsity" in err

    out = tmp_path / "r1.json"
    code, stdout, _ = run(capsys, "build", "--kind", "ripple", "--width", "1",
                          "--out", str(out))
    assert code == 0
    nl = netlist.from_json(out.read_text())
    assert nl.width == 1 and "depth=5" in stdout


def test_build_dot_format(tmp_path, capsys):
    out = tmp_path / "r2.dot"
    code, _, _ = run(capsys, "build", "--kind", "ripple", "--width", "2",
                     "--out", str(out), "--format", "dot")
    assert code == 0
    assert out.read_text().startswith("digraph")


def test_build_deterministic_bytes(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "build", "--kind", "hybrid", "--width", "8", "--block", "2",
        "--out", str(p1))
    run(capsys, "build", "--kind", "hybrid", "--width", "8", "--block", "2",
        "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_eval_flow(tmp_path, capsys):
    out = tmp_path / "r2.json"
    run(capsys, "build", "--kind", "ripple", "--width", "2", "--out", str(out))
    code, stdout, _ = run(capsys, "eval", "--netlist", str(out),
                          "--a", "12", "--b", "21", "--cin", "1")
    assert code == 0
    assert "S=00 C=1" in stdout

    code, stdout, _ = run(capsys, "eval", "--netlist", str(out),
                          "--a", "00", "--b", "00", "--cin", "0")
    assert code == 0 and "S=00 C=0" in stdout

    code, _, err = run(capsys, "eval", "--netlist", str(out),
                       "--a", "123", "--b", "21", "--cin", "0")
    assert code == 2 and "digits" in err


def test_verify_exhaustive_and_bound(tmp_path, capsys):
    code, stdout, _ = run(capsys, "verify", "--kind", "single", "--width", "3",
                          "--exhaustive")
    assert code == 0
    assert json.loads(stdout)["passed"] is True

    code, stdout, err = run(capsys, "verify", "--kind", "ripple", "--width", "9",
                            "--exhaustive")
    assert code == 2 and stdout == ""
    assert err == ("error: width 9 exceeds the exhaustive bound 4; "
                   "check it with random trials instead\n")

    code, stdout, err = run(capsys, "verify", "--width", "3", "--exhaustive")
    assert code == 2 and stdout == ""
    assert err == "error: verify needs either --netlist or --kind/--width\n"


def test_verify_random_and_report_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run(capsys, "verify", "--kind", "hybrid", "--width", "16",
                          "--block", "4", "--random", "2000", "--seed", "7",
                          "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["seed"] == 7
    assert out.read_text() == stdout


def test_verify_trial_count_too_large_to_allocate_exits_2(capsys):
    # 1e17 trials of 16 digits ask for 1.6e18 bytes, beyond any 57-bit
    # address space, so the allocation fails at once.
    code, stdout, err = run(capsys, "verify", "--kind", "ripple", "--width", "16",
                            "--random", "100000000000000000")
    assert code == 2 and stdout == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_verify_past_the_random_cap_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, stdout, err = run(capsys, "verify", "--kind", "ripple", "--width", "16",
                            "--random", "100000000000000000")
    assert time.perf_counter() - start < 1
    assert code == 2 and stdout == ""
    assert "RANDOM_DIGITS_CAP" in err and "Traceback" not in err


def test_memory_error_exits_2_with_a_reason(tmp_path, monkeypatch, capsys):
    def exhausted(spec):
        raise MemoryError()

    monkeypatch.setattr(builders, "build", exhausted)
    code, stdout, err = run(capsys, "build", "--kind", "tree", "--width", "4",
                            "--out", str(tmp_path / "t.json"))
    assert code == 2 and stdout == ""
    assert err == "error: build ran out of memory\n"


def test_verify_catches_corrupted_stored_netlist(tmp_path, capsys):
    out = tmp_path / "r2.json"
    run(capsys, "build", "--kind", "ripple", "--width", "2", "--out", str(out))
    doc = json.loads(out.read_text())
    for node in doc["nodes"]:
        if node["kind"] == "xor":
            node["kind"] = "or"
            break
    out.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "verify", "--netlist", str(out), "--exhaustive")
    assert code == 1
    assert json.loads(stdout)["mismatches"]


def test_verify_netlist_excludes_kind_and_width(tmp_path, capsys):
    """A stored document and a built spec are two sources: naming both, or
    --netlist with either spec flag, is a usage error, not a silent pick."""
    out = tmp_path / "t2.json"
    run(capsys, "build", "--kind", "tree", "--width", "2", "--out", str(out))
    for spec in (["--kind", "ripple", "--width", "9"], ["--kind", "ripple"], ["--width", "2"]):
        code, stdout, err = run(capsys, "verify", "--netlist", str(out), *spec, "--exhaustive")
        assert code == 2 and stdout == ""
        assert err == "error: verify takes either --netlist or --kind/--width, not both\n"


@pytest.mark.parametrize("flag", ["--block", "--sparsity"])
def test_verify_netlist_excludes_block_and_sparsity(tmp_path, capsys, flag):
    """The spec parameters only shape a built adder; with --netlist they
    would be ignored, so either one is a usage error."""
    out = tmp_path / "t2.json"
    run(capsys, "build", "--kind", "tree", "--width", "2", "--out", str(out))
    code, stdout, err = run(capsys, "verify", "--netlist", str(out), flag, "2", "--exhaustive")
    assert code == 2 and stdout == ""
    assert err == "error: verify --netlist takes no --sparsity or --block\n"


def test_analyze_row(capsys):
    code, stdout, _ = run(capsys, "analyze", "--kind", "tree", "--width", "7")
    assert code == 0
    row = stdout.splitlines()[1]
    assert row.startswith("tree,7,10,10,")
    assert any(line.startswith("#") for line in stdout.splitlines())


def test_kind_aliases_and_unknown_kind(capsys):
    code, alias, _ = run(capsys, "analyze", "--kind", "single-stage", "--width", "3")
    assert code == 0
    code, canonical, _ = run(capsys, "analyze", "--kind", "single_stage", "--width", "3")
    assert code == 0 and alias == canonical
    for argv in (["analyze", "--kind", "carry_skip", "--width", "3"],
                 ["sweep", "--kinds", "ripple,carry_skip", "--widths", "2..3"]):
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == ""
        assert err == "error: unknown adder kind: 'carry_skip'\n"


def test_sweep_row_count_and_determinism(tmp_path, capsys):
    c1, c2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    code, _, _ = run(capsys, "sweep", "--kinds", "ripple,single,tree",
                     "--widths", "2..22", "--csv", str(c1))
    assert code == 0
    run(capsys, "sweep", "--kinds", "ripple,single,tree",
        "--widths", "2..22", "--csv", str(c2))
    assert c1.read_bytes() == c2.read_bytes()
    lines = c1.read_text().splitlines()
    assert len(lines) == 1 + 3 * 21
    assert lines[0].startswith("kind,n,cf_delay,meas_delay")

    code, _, err = run(capsys, "sweep", "--kinds", "ripple,zigzag",
                       "--widths", "2..4")
    assert code == 2 and "zigzag" in err

    for widths in ("0", "0..3", "3..1", "2..", "x", "1..2..3", "2,,3"):
        code, stdout, err = run(capsys, "sweep", "--kinds", "tree", "--widths", widths)
        assert code == 2 and stdout == ""
        assert err.startswith("error: bad width: '") and "Traceback" not in err

    code, stdout, _ = run(capsys, "sweep", "--kinds", "tree", "--widths", "2..4, 7")
    assert code == 0
    assert [line.split(",")[1] for line in stdout.splitlines()[1:]] == ["2", "3", "4", "7"]


def test_unknown_flags_rejected(capsys):
    code, _, _ = run(capsys, "build", "--kind", "tree", "--width", "4",
                     "--out", "x.json", "--frobnicate")
    assert code == 2
    code, _, _ = run(capsys, "verify", "--kind", "tree", "--width", "4", "--exhaustive",
                     "--bound", "4")
    assert code == 2


def test_unreadable_document_exits_2(tmp_path, capsys):
    for path in (tmp_path / "missing.json", tmp_path):
        for argv in (["eval", "--netlist", str(path), "--a", "01", "--b", "02"],
                     ["verify", "--netlist", str(path), "--exhaustive"]):
            code, stdout, err = run(capsys, *argv)
            assert code == 2 and stdout == ""
            assert err.startswith(f"error: cannot read {path}: ") and "Traceback" not in err


def test_dash_is_an_ordinary_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    dash = tmp_path / "-"
    code, stdout, _ = run(capsys, "verify", "--kind", "tree", "--width", "2", "--exhaustive",
                          "--out", "-")
    assert code == 0 and json.loads(stdout)["passed"] is True
    assert dash.read_text() == stdout
    code, stdout, _ = run(capsys, "build", "--kind", "tree", "--width", "2", "--out", "-")
    assert code == 0 and stdout.startswith("tree width=2 gates=") and stdout.count("\n") == 1
    assert netlist.from_json(dash.read_text()).width == 2
    code, stdout, _ = run(capsys, "analyze", "--kind", "tree", "--width", "2", "--csv", "-")
    assert code == 0 and stdout == "wrote -\n"
    assert dash.read_text().startswith("kind,n,")


def test_write_failure_maps_to_exit_1(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "x.json"
    code, _, err = run(capsys, "build", "--kind", "tree", "--width", "4",
                       "--out", str(target))
    assert code == 1
    assert err


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hybrid_block_defaults_to_width_when_narrow(tmp_path, capsys, n):
    flags = ("--kind", "hybrid", "--width", str(n))
    code, stdout, _ = run(capsys, "analyze", *flags)
    assert code == 0 and stdout.splitlines()[1].startswith(f"hybrid,{n},")
    code, stdout, _ = run(capsys, "verify", *flags, "--exhaustive")
    assert code == 0 and json.loads(stdout)["passed"] is True
    out = tmp_path / "h.json"
    code, stdout, _ = run(capsys, "build", *flags, "--out", str(out))
    assert code == 0
    assert netlist.from_json(out.read_text()).meta["params"]["block"] == n


def test_hybrid_explicit_block_out_of_range_exits_2(capsys):
    code, _, err = run(capsys, "analyze", "--kind", "hybrid", "--width", "3", "--block", "4")
    assert code == 2 and "block" in err


def _stored_ripple(tmp_path, capsys):
    path = tmp_path / "r2.json"
    run(capsys, "build", "--kind", "ripple", "--width", "2", "--out", str(path))
    return path, json.loads(path.read_text())


def _expect_malformed(capsys, path, doc, error="malformed:"):
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    for argv in (["eval", "--netlist", str(path), "--a", "01", "--b", "02"],
                 ["verify", "--netlist", str(path), "--exhaustive"]):
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: {error}") and "Traceback" not in err


def test_document_with_renamed_input_port_is_rejected(tmp_path, capsys):
    path, doc = _stored_ripple(tmp_path, capsys)
    doc["nodes"][doc["ports"]["A"][0]]["name"] = "B[1]"
    _expect_malformed(capsys, path, doc)


def test_document_with_non_int_signal_id_is_rejected(tmp_path, capsys):
    path, doc = _stored_ripple(tmp_path, capsys)
    doc["signals"]["x"] = "7"
    _expect_malformed(capsys, path, doc)


def test_document_with_list_valued_groups_is_rejected(tmp_path, capsys):
    path, doc = _stored_ripple(tmp_path, capsys)
    doc["meta"]["groups"] = [[1, 2]]
    _expect_malformed(capsys, path, doc)


def _first(doc, kind):
    return next(node for node in doc["nodes"] if node["kind"] == kind)


def _set_input_id(value):
    def mutate(doc):
        _first(doc, "xor")["inputs"][0] = value
    return mutate


def _set_const_value(value):
    def mutate(doc):
        node = _first(doc, "const")
        node.pop("value")
        if value is not None:
            node["value"] = value
    return mutate


def _extra_input(doc):
    doc["nodes"].append({"id": len(doc["nodes"]), "kind": "input", "inputs": [], "name": "X"})


def _add_input_to(kind):
    def mutate(doc):
        _first(doc, kind)["inputs"].append(0)
    return mutate


def _width_zero(doc):
    doc["width"] = 0
    doc["ports"].update(A=[], B=[], S=[])


_MALFORMED = "malformed:"
_VERSION = "version: expected version 1, got "


@pytest.mark.parametrize("mutate, error", [
    (_set_input_id("1"), _MALFORMED),
    (_set_input_id(1.0), _MALFORMED),
    (_set_input_id(True), _MALFORMED),
    (lambda doc: _first(doc, "xor").update(kind=["xor"]), _MALFORMED),
    (lambda doc: doc.update(nodes=5), _MALFORMED),
    (lambda doc: doc["ports"].update(cout=True), _MALFORMED),
    (lambda doc: doc["signals"].update(x=True), _MALFORMED),
    (_set_const_value(None), _MALFORMED),
    (_set_const_value(5), _MALFORMED),
    (_set_const_value(-1), _MALFORMED),
    (_set_const_value(True), _MALFORMED),
    (_extra_input, _MALFORMED),
    (_width_zero, _MALFORMED),
    (lambda doc: _first(doc, "and")["inputs"].pop(), _MALFORMED),
    (_add_input_to("bitswap"), _MALFORMED),
    (_add_input_to("const"), _MALFORMED),
    (_add_input_to("input"), _MALFORMED),
    (lambda doc: doc.update(version=True), _VERSION + "True"),
    (lambda doc: doc.update(version=1.0), _VERSION + "1.0"),
    (lambda doc: doc.update(version="1"), _VERSION + "'1'"),
    (lambda doc: "[" * 100000 + "]" * 100000, _MALFORMED),
    (lambda doc: _first(doc, "xor").update(value=3), _MALFORMED + " xor node"),
    (lambda doc: _first(doc, "xor").update(name="A[1]"), _MALFORMED + " xor node"),
    (lambda doc: _first(doc, "and").update(valeu=3), _MALFORMED + " unknown field 'valeu'"),
    (lambda doc: doc["ports"].update(Z=0), _MALFORMED + " unknown field 'Z' in ports"),
    (lambda doc: doc.update(extra=1), _MALFORMED + " unknown field 'extra'"),
    (lambda doc: doc.update(signals=[["x", 0]]), _MALFORMED + " signals is not an object"),
    (lambda doc: doc.update(signals=["ab"]), _MALFORMED + " signals is not an object"),
    (lambda doc: doc.update(meta=[["note", 1]]), _MALFORMED + " meta is not an object"),
    (lambda doc: doc["meta"].update(kind="tree"), _MALFORMED + " meta holds kind"),
], ids=["str-input-id", "float-input-id", "bool-input-id", "unhashable-kind", "nodes-not-list",
        "bool-cout-port", "bool-signal-id", "const-without-value", "const-value-5",
        "const-value-negative", "const-value-bool", "input-node-not-a-port", "width-zero",
        "and-fan-in-1", "bitswap-fan-in-2", "const-with-input", "input-with-input",
        "bool-version", "float-version", "str-version", "nested-100000-deep", "gate-with-value",
        "gate-with-name", "misspelt-record-key", "extra-port", "extra-top-level-key",
        "signals-pairs", "signals-strings", "meta-pairs", "meta-kind"])
def test_document_type_holes_are_rejected(tmp_path, capsys, mutate, error):
    path, doc = _stored_ripple(tmp_path, capsys)
    text = mutate(doc)   # a mutation that returns text replaces the whole document
    _expect_malformed(capsys, path, doc if text is None else text, error)
