"""Command-line surface: build, eval, verify, analyze, sweep.

Digit strings on the command line are most-significant digit first; the
in-memory word order (least significant first) never leaks through this
module.  Exit codes: 0 success, 1 verification mismatch or output I/O
failure, 2 usage or validation error (an unreadable input document too).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import analysis, builders, netlist, verify

_KIND_ALIASES = {"single": "single_stage", "single-stage": "single_stage"}


def _canonical_kind(text: str) -> str:
    kind = _KIND_ALIASES.get(text, text)
    if kind not in builders.KINDS:
        raise ValueError(f"unknown adder kind: {text!r}")
    return kind


def _spec_from_args(args) -> builders.AdderSpec:
    """The spec of the flags; a flag its kind does not take is an error, not dropped."""
    kind = _canonical_kind(args.kind)
    for name in ("sparsity", "block"):   # checked here to name the flag, not the parameter
        if getattr(args, name) is not None and name not in builders.TAKES.get(kind, ()):
            raise ValueError(f"a {kind} adder takes no --{name}")
    return builders.AdderSpec(kind, args.width, args.sparsity, args.block)


def _parse_digits(text: str, width: int, flag: str) -> tuple[int, ...]:
    if len(text) != width:
        raise ValueError(f"{flag} must have exactly {width} digits, got {len(text)}")
    if any(ch not in "0123" for ch in text):
        raise ValueError(f"{flag} must contain only digits 0..3")
    return tuple(int(ch) for ch in reversed(text))  # msb-first text -> lsb-first word


def _format_digits(word) -> str:
    return "".join(str(d) for d in reversed(word))


def _parse_widths(text: str) -> list[int]:
    """Comma-separated width tokens; each token is n or lo..hi, with 1 <= lo <= hi."""
    widths = []
    for token in text.split(","):
        lo, dots, hi = token.partition("..")
        try:
            lo, hi = int(lo), int(hi if dots else lo)
        except ValueError:
            lo = hi = 0   # not a number: fails the range check below
        if not 1 <= lo <= hi:
            raise ValueError(f"bad width: {token.strip()!r}; use n or lo..hi with 1 <= lo <= hi")
        widths.extend(range(lo, hi + 1))
    return widths


def _write_output(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _read_netlist(path: str) -> netlist.Netlist:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    return netlist.from_json(text)


def cmd_build(args) -> int:
    spec = _spec_from_args(args)
    nl = builders.build(spec)
    text = netlist.to_json(nl) if args.format == "json" else netlist.to_dot(nl)
    _write_output(args.out, text)
    depth = max(netlist.signal_depths(nl, nl.meta["delay_scope"], "included").values())
    gates = len(nl.gate_nodes())
    print(f"{spec.kind} width={spec.width} gates={gates} depth={depth}")
    return 0


def cmd_eval(args) -> int:
    nl = _read_netlist(args.netlist)
    a = _parse_digits(args.a, nl.width, "--a")
    b = _parse_digits(args.b, nl.width, "--b")
    s, cout = netlist.evaluate_words(nl, a, b, args.cin)
    print(f"S={_format_digits(s)} C={cout}")
    return 0


def cmd_verify(args) -> int:
    if args.exhaustive and args.seed is not None:
        raise ValueError("verify --exhaustive takes no --seed")
    if args.netlist is not None:
        if args.kind is not None or args.width is not None:
            raise ValueError("verify takes either --netlist or --kind/--width, not both")
        if args.sparsity is not None or args.block is not None:
            raise ValueError("verify --netlist takes no --sparsity or --block")
        nl = _read_netlist(args.netlist)
    elif args.kind is None or args.width is None:
        raise ValueError("verify needs either --netlist or --kind/--width")
    else:
        nl = builders.build(_spec_from_args(args))
    if args.exhaustive:
        report = verify.check_exhaustive(nl)
    else:
        report = verify.check_random(nl, args.random, args.seed or 0)
    text = report.to_json()
    sys.stdout.write(text)
    if args.out:
        _write_output(args.out, text)
    return 0 if report.passed else 1


def cmd_analyze(args) -> int:
    spec = _spec_from_args(args)
    row = analysis.compare(spec, mask_counting=args.mask)
    text = analysis.rows_to_csv([row])
    for note in row.notes:
        text += f"# {note}\n"
    _write_output(args.csv, text)
    if args.csv:
        print(f"wrote {args.csv}")
    return 0


def cmd_sweep(args) -> int:
    kinds = [_canonical_kind(k) for k in args.kinds.split(",") if k]
    widths = _parse_widths(args.widths)
    rows = analysis.sweep(kinds, widths, mask_counting=args.mask)
    text = analysis.rows_to_csv(rows)
    _write_output(args.csv, text)
    if args.csv:
        print(f"wrote {args.csv} ({len(rows)} rows)")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadder", description="quaternary adder laboratory"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(p, need_kind=True):
        p.add_argument("--kind", required=need_kind,
                       help="ripple | single | tree | sparse | hybrid")
        p.add_argument("--width", type=int, required=need_kind)
        p.add_argument("--sparsity", type=int, default=None, help="sparse sparsity (default: 4)")
        p.add_argument("--block", type=int, default=None,
                       help="hybrid block size (default: min(4, width))")

    p = sub.add_parser("build", help="generate a netlist document")
    add_spec_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("eval", help="evaluate a stored netlist on one input")
    p.add_argument("--netlist", required=True)
    p.add_argument("--a", required=True, help="base-4 digits, most significant first")
    p.add_argument("--b", required=True)
    p.add_argument("--cin", type=int, choices=(0, 1), default=0)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="check an adder against the integer oracle")
    add_spec_flags(p, need_kind=False)
    p.add_argument("--netlist", help="verify a stored netlist document instead")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--exhaustive", action="store_true")
    mode.add_argument("--random", type=int, metavar="TRIALS")
    p.add_argument("--seed", type=int, default=None, help="random seed (default: 0)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("analyze", help="closed-form vs measured, one row")
    add_spec_flags(p)
    p.add_argument("--mask", choices=("included", "excluded"), default="excluded")
    p.add_argument("--csv")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("sweep", help="closed-form vs measured over a width range")
    p.add_argument("--kinds", required=True, help="comma-separated kinds")
    p.add_argument("--widths", required=True, help="e.g. 2..64 or 4,8,16")
    p.add_argument("--mask", choices=("included", "excluded"), default="excluded")
    p.add_argument("--csv")
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with netlist.collector_paused():   # a command makes no reference cycle worth a pass
            return args.fn(args)
    except ValueError as exc:   # a DocumentError is one
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:   # often raised with no message
        print(f"error: {args.command} ran out of memory {exc}".rstrip(), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
