"""Command-line front end.

Subcommands mirror the library layers: ``roots`` and ``hbeta`` (root system
data), ``reduce`` (word rewriting), ``tcoeff`` (coefficient algebra),
``matrices`` (representation matrices, optionally through the classical
character), ``verify`` (relation suites) and ``dims`` (dimension formulas).

Exit codes: 0 on success or all checks passing, 1 when a verification check
fails, 2 on usage errors, 3 on any other error (one ``error: internal: <Type>:
<message>`` line on stderr), 141 (128 + SIGPIPE) with no message when the
reader closes stdout before the output is written.  Exit 2 comes from argparse
or from the one mapping in ``main``: a ``UsageError`` from the parsers here, a
``WordParseError`` from ``parse_word``, or an ``UnsupportedModeError`` from
the code that refuses the request (``build_lk``, ``CharacterSpecialization``,
``run_suite``).  Output is deterministic: identical invocations produce
identical bytes, and JSON output re-serializes to itself.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .lkrep import CharacterSpecialization, UnsupportedModeError, build_lk
from .rootsys import DynkinType, build_type
from .scalar import Scalar
from .verify import dims_report, run_suite
from .wordalg import WordParseError, parse_word, reduce_word, word_to_text


class UsageError(ValueError):
    pass


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _parse_type(label: str):
    try:
        return build_type(DynkinType.parse(label).label)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _is_ascii_number(text: str) -> bool:
    return text.isascii() and text.isdecimal()


def _parse_root(rs, text: str):
    parts = text.replace(" ", "").split(",")
    if not all(_is_ascii_number(c) for c in parts):
        raise UsageError(f"cannot parse root {text!r}: expected comma-separated integers")
    coeffs = tuple(int(c) for c in parts)
    if len(coeffs) != rs.n:
        raise UsageError(f"root needs {rs.n} coefficients for {rs.dtype.label}")
    if not rs.is_positive_root(coeffs):
        raise UsageError(f"{coeffs} is not a positive root of {rs.dtype.label}")
    return coeffs


def _parse_node(rs, text: str) -> int:
    if not _is_ascii_number(text):
        raise UsageError(f"cannot parse node {text!r}")
    node = int(text)
    if node not in rs.nodes:
        raise UsageError(f"node {node} out of range")
    return node


def _parse_fraction(text: str) -> Fraction:
    if text.isascii():
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise UsageError(f"cannot parse rational {text!r}")


def _cmd_roots(args, rs) -> int:
    if args.json:
        print(_dumps(rs.to_json_dict()))
        return 0
    for beta in rs.positive_roots:
        print(" ".join(str(c) for c in beta))
    print("highest:", " ".join(str(c) for c in rs.highest_root))
    print("C:", " ".join(str(j) for j in rs.c_nodes) if rs.c_nodes else "(empty)")
    return 0


def _cmd_reduce(args, rs) -> int:
    comb = reduce_word(rs, parse_word(rs, args.word))
    items = sorted(comb.items(), key=lambda kv: (len(kv[0]), kv[0]))
    if args.json:
        print(_dumps({
            "combination": [
                {"word": word_to_text(w).split(), "coeff": c.to_json_dict()}
                for w, c in items
            ]
        }))
        return 0
    for w, c in items:
        print(f"({c!r}) * {word_to_text(w) if w else '1'}")
    return 0


def _cmd_tcoeff(args, rs) -> int:
    lk = build_lk(rs.dtype.label)
    beta = _parse_root(rs, args.root)
    t = lk.t_coeff(_parse_node(rs, args.node), beta)
    print(_dumps(t.to_json_dict()) if args.json else repr(t))
    return 0


def _cmd_hbeta(args, rs) -> int:
    beta = _parse_root(rs, args.root)
    node = _parse_node(rs, args.node)
    try:
        h = rs.h_node(beta, node)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(_dumps({"node": h}) if args.json else f"z{h}")
    return 0


def _cmd_matrices(args, rs) -> int:
    if args.r is not None and args.theta is None:
        raise UsageError("--r needs --theta lk")
    if args.theta is None:
        rep = build_lk(rs.dtype.label)
        builders = {"sigma": rep.sigma, "e": rep.e_matrix}
    else:
        r = Scalar.m() if args.r is None else Scalar.from_fraction(_parse_fraction(args.r))
        rep = CharacterSpecialization(rs, Scalar.l(1), r)
        builders = {"gamma": rep.sigma}
    zero = rep.zero()
    payload = {"type": rs.dtype.label, "size": rep.size}
    for key, build in builders.items():
        payload[key] = {str(i): build(i).to_json_columns(lambda v: (v or zero).to_json_dict())
                        for i in rs.nodes}
    text = _dumps(payload)
    if args.json is not True:
        try:
            Path(args.json).write_text(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {args.json}: {exc.strerror or exc}") from exc
    else:
        print(text)
    return 0


def _parse_specialize(text: str) -> tuple[Fraction, Fraction]:
    items = [p.partition("=") for p in text.split(",")]
    if len(items) != 2 or sorted(k for k, eq, _ in items if eq) != ["l", "r"]:
        raise UsageError(f"expected --specialize l=<rat>,r=<rat>, got {text!r}")
    parts = {k: v for k, _, v in items}
    return _parse_fraction(parts["l"]), _parse_fraction(parts["r"])


def _cmd_verify(args, rs) -> int:
    point = None if args.specialize is None else _parse_specialize(args.specialize)
    report = run_suite(args.suite, rs.dtype.label, point)
    if args.json:
        print(_dumps(report.to_json_dict()))
    else:
        print("\n".join(report.text_lines()))
    return 0 if report.passed else 1


def _cmd_dims(args, rs) -> int:
    report = dims_report(rs.dtype.label)
    if args.json:
        print(_dumps(report))
        return 0
    for key in ("type", "phi_plus", "c_nodes", "w_c_order", "hecke_dim", "i1_mod_i2_dim"):
        print(f"{key}: {report[key]}")
    if report["total_dim"] is not None:
        tag = " (conjectural)" if report["total_conjectural"] else ""
        print(f"total_dim: {report['total_dim']}{tag}")
    if report["layers"]:
        for layer in report["layers"]:
            print(f"  layer cocliques={layer['cocliques']} orbit={layer['orbit']} dim={layer['dim']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmwade",
        description="Exact BMW algebra and Lawrence-Krammer computations for ADE types.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    typed = argparse.ArgumentParser(add_help=False)
    typed.add_argument("--type", required=True)

    p = sub.add_parser("roots", parents=[typed],
                       help="positive roots, highest root, and the node set C")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_roots)

    p = sub.add_parser("reduce", parents=[typed], help="rewrite a word over g<i>/G<i>/e<i>")
    p.add_argument("--word", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("tcoeff", parents=[typed], help="the coefficient T_{i,beta}")
    p.add_argument("--node", required=True)
    p.add_argument("--root", required=True, help="comma-separated coefficients")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_tcoeff)

    p = sub.add_parser("hbeta", parents=[typed], help="the node with h_{beta,i} = z_j")
    p.add_argument("--root", required=True)
    p.add_argument("--node", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_hbeta)

    p = sub.add_parser("matrices", parents=[typed],
                       help="representation matrices, generic or through a character")
    p.add_argument("--theta", choices=["lk"], default=None)
    p.add_argument("--r", default=None, help="rational value for r (with --theta lk)")
    p.add_argument("--json", nargs="?", const=True, default=True,
                   metavar="PATH", help="write JSON to PATH instead of stdout")
    p.set_defaults(fn=_cmd_matrices)

    p = sub.add_parser("verify", parents=[typed], help="run a relation suite")
    p.add_argument("--suite", required=True)
    p.add_argument("--specialize", default=None, help="l=<rat>,r=<rat>")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("dims", parents=[typed], help="dimension formulas")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_dims)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a negative fraction such as -2/5 for an option: bind it to --r
    for k in range(len(argv) - 2, -1, -1):
        if argv[k] == "--r" and argv[k + 1][:1] == "-" and argv[k + 1][1:2].isdigit():
            argv[k:k + 2] = [f"--r={argv[k + 1]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.fn(args, _parse_type(args.type))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): drop the rest of the output and
        # end like a writer killed by SIGPIPE, without a message at shutdown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (UsageError, UnsupportedModeError, WordParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"hint: see `bmwade {args.command} --help`", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
