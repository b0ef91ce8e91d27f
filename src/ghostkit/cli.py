"""Command-line interface.

Exit codes: 0 success, 1 domain or validation error, 2 verification failure.
All output is deterministic; ``--format json`` emits one JSON document on
stdout (exact rationals serialized as strings).  A reader that closes stdout
early (``ghostkit catalog | head``) ends the command quietly with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

# Each command imports the engines it runs (fusion, homalg, functors,
# rigidity, verify), so one call loads only those.  ``characters`` stays
# here with ``modules``: perfbench's traced probe wraps ``FormalSum`` and
# ``CharSeries`` right after ``import ghostkit.cli`` and needs both loaded.
from . import characters, config
from .grammar import parse_module_expr, parse_single_module
from .modules import TOP, FormalSum, loewy, sequence_catalog

# the names of ``verify.SUITES``, listed here so that building the parser
# does not import ``verify``; a test keeps the two equal
_SUITE_NAMES = ("fusion", "homalg", "characters", "numerics")


def _sum_json(s: FormalSum):
    return [{"module": str(m), "mult": k} for m, k in s]


def _render_chain(word) -> str:
    labels = [f"V[{f}]" for f, _ in word]
    width = max(len(lab) for lab in labels) + 4
    top = [" " * width] * len(word)
    bot = [" " * width] * len(word)
    mid = [" "] * (width * len(word))
    for k, ((f, row), lab) in enumerate(zip(word, labels)):
        cell = lab.center(width)
        if row == TOP:
            top[k] = cell
        else:
            bot[k] = cell
    for k in range(1, len(word)):
        pos = k * width - width // 2
        mid[pos] = "\\" if word[k - 1][1] == TOP else "/"
    lines = ["".join(top).rstrip(), "".join(mid).rstrip(), "".join(bot).rstrip()]
    return "\n".join(line for line in lines if line)


def _render_diamond(m: int) -> str:
    top, left, right, bottom = f"V[{m}]", f"V[{m - 1}]", f"V[{m + 1}]", f"V[{m}]"
    width = max(len(left), len(right)) + 2
    pad = " " * width
    return "\n".join([
        pad + top,
        pad[:-2] + "/" + " " * (len(top) + 2) + "\\",
        left.ljust(width + len(top) + 2) + right,
        pad[:-2] + "\\" + " " * (len(top) + 2) + "/",
        pad + bottom,
    ])


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _cmd_fuse(args, cfg) -> int:
    from .fusion import fuse_detailed

    a = parse_module_expr(args.left)
    b = parse_module_expr(args.right)
    strict = args.strict_guards or cfg.strict_guards
    res = fuse_detailed(a, b, strict_guards=strict)
    payload = {
        "input": [str(a), str(b)],
        "summands": _sum_json(res.total),
        "guard_extended": res.guard_extended,
    }
    if args.format == "json":
        # only JSON shows the compact display; it refuses above its size limit
        payload["projective_compact"] = sorted(res.compact)
    text = str(res.total)
    if res.guard_extended:
        text += "\nguard-extended: true"
    _emit(args, payload, text)
    return 0


def _cmd_dim(args, cfg, op_name) -> int:
    from . import homalg

    src = parse_module_expr(args.source)
    tgt = parse_module_expr(args.target)
    dim = getattr(homalg, op_name)(src, tgt)
    _emit(args, {"source": str(src), "target": str(tgt), "dim": dim}, str(dim))
    return 0


def _cmd_char(args, cfg) -> int:
    mods = parse_module_expr(args.expr)
    hmax = config.parse_fraction(args.hmax, "hmax") if args.hmax is not None else cfg.hmax
    window = config.parse_jwindow(args.jwindow) if args.jwindow else cfg.jwindow
    ch = characters.character(mods, hmax, window)
    entries = [{"j": str(j), "h": str(h), "dim": d} for j, h, d in ch.entries()]
    payload = {
        "module": str(mods),
        "hmax": str(hmax),
        "jwindow": [str(window[0]), str(window[1])],
        "entries": entries,
    }
    if args.format == "csv":
        lines = ["j,h,dim"] + [f"{e['j']},{e['h']},{e['dim']}" for e in entries]
        print("\n".join(lines))
        return 0
    text = "\n".join(f"{e['j']:>8s} {e['h']:>8s} {e['dim']:>6d}" for e in entries)
    _emit(args, payload, text if text else "(empty)")
    return 0


def _cmd_loewy(args, cfg) -> int:
    mod = parse_single_module(args.expr)
    word = loewy(mod)
    payload = {
        "module": str(mod),
        "diamond": word.diamond,
        "entries": [{"flow": f, "row": r} for f, r in word.entries],
    }
    text = _render_diamond(mod.m) if word.diamond else _render_chain(word.entries)
    _emit(args, payload, text)
    return 0


def _cmd_dual(args, cfg) -> int:
    from .functors import conjugate, dual_restricted, dual_star, dual_tensor, flow

    mods = parse_module_expr(args.expr)
    if args.functor == "flow":
        result = flow(mods, args.ell)
    else:
        functor = {"star": dual_star, "restricted": dual_restricted,
                   "conjugate": conjugate, "tensor": dual_tensor}[args.functor]
        result = functor(mods)
    payload = {"input": str(mods), "functor": args.functor, "result": str(result)}
    _emit(args, payload, str(result))
    return 0


def _cmd_cover(args, cfg, op_name) -> int:
    from . import homalg

    mods = parse_module_expr(args.expr)
    result = getattr(homalg, op_name)(mods)
    payload = {"input": str(mods), "result": str(result),
               "summands": _sum_json(result)}
    _emit(args, payload, str(result))
    return 0


def _cmd_rigidity(args, cfg) -> int:
    from . import rigidity

    value = rigidity.rigidity_constant(args.j, args.w1, ell=args.ell)
    devs = rigidity.identity_report(args.j)
    identities_pass = max(devs.values()) < 1e-10
    payload = {
        "j": args.j,
        "w1": args.w1,
        "ell": args.ell,
        "I_abs": abs(value),
        "I_re": value.real,
        "I_im": value.imag,
        "identities_pass": identities_pass,
    }
    text = (f"j={args.j} w1={args.w1} |I|={abs(value):.12e} "
            f"identities={'pass' if identities_pass else 'FAIL'}")
    _emit(args, payload, text)
    return 0


def _cmd_catalog(args, cfg) -> int:
    bound = args.bound if args.bound is not None else cfg.catalog_bound
    catalog = sequence_catalog(bound)
    payload = {
        "bound": bound,
        "sequences": [{
            "name": seq.name,
            "tag": seq.tag,
            "sub": str(seq.sub),
            "middle": str(seq.middle),
            "quotient": str(seq.quotient),
        } for seq in catalog],
    }
    text = "\n".join(
        f"{seq.name}: 0 -> {seq.sub} -> {seq.middle} -> {seq.quotient} -> 0"
        for seq in catalog)
    _emit(args, payload, text)
    return 0


def _cmd_verify(args, cfg) -> int:
    from . import verify

    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    if args.max_length is not None:
        cfg = replace(cfg, pool_max_length=args.max_length)
    if args.max_flow is not None:
        cfg = replace(cfg, pool_max_flow=args.max_flow)
    results = verify.run_suites(names, cfg)
    all_passed = all(c.passed for checks in results.values() for c in checks)
    payload = {
        "passed": all_passed,
        "suites": {
            name: [{"name": c.name, "passed": c.passed, "detail": c.detail,
                    "cases": c.cases} for c in checks]
            for name, checks in results.items()
        },
    }
    lines = []
    for name, checks in results.items():
        for c in checks:
            lines.append(f"[{name}] {c.line()}")
        status = "PASS" if all(c.passed for c in checks) else "FAIL"
        lines.append(f"suite {name}: {status}")
    _emit(args, payload, "\n".join(lines))
    return 0 if all_passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghostkit",
        description="Exact fusion, homological and character calculus for the "
                    "bosonic ghost module category.")
    parser.add_argument("--config", help="path to a key=value config file")
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format")
    # the global flags are also accepted after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("fuse", help="fusion product of two expressions")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--strict-guards", action="store_true")

    p = sub.add_parser("hom", help="dimension of the Hom space")
    p.add_argument("source")
    p.add_argument("target")

    p = sub.add_parser("ext", help="dimension of the first Ext group")
    p.add_argument("source")
    p.add_argument("target")

    p = sub.add_parser("char", help="truncated graded character")
    p.add_argument("expr")
    p.add_argument("--hmax")
    p.add_argument("--jwindow", help="ghost window a:b (use --jwindow=-6:6 "
                                     "for negative bounds)")

    p = sub.add_parser("loewy", help="Loewy diagram of one module")
    p.add_argument("expr")

    p = sub.add_parser("dual", help="apply a duality or twist functor")
    p.add_argument("expr")
    p.add_argument("--functor", choices=("star", "restricted", "conjugate",
                                         "tensor", "flow"), default="star")
    p.add_argument("--ell", type=int, default=1, help="flow amount for --functor flow")

    p = sub.add_parser("cover", help="projective cover")
    p.add_argument("expr")

    p = sub.add_parser("hull", help="injective hull")
    p.add_argument("expr")

    p = sub.add_parser("rigidity", help="rigidity constant and identity checks")
    p.add_argument("--j", type=float, default=0.3)
    p.add_argument("--w1", type=float, default=1.0)
    p.add_argument("--ell", type=int, default=0)

    p = sub.add_parser("catalog", help="exact sequence catalog")
    p.add_argument("--bound", type=int)

    p = sub.add_parser("verify", help="run property verification suites")
    p.add_argument("--suite", choices=("all",) + _SUITE_NAMES,
                   default="all")
    p.add_argument("--max-length", type=int)
    p.add_argument("--max-flow", type=int)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format == "csv" and args.command != "char":
        print(f"error: --format csv applies only to char, not to {args.command}",
              file=sys.stderr)
        return 1
    try:
        cfg = config.load(args.config)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    dispatch = {
        "fuse": lambda: _cmd_fuse(args, cfg),
        "hom": lambda: _cmd_dim(args, cfg, "hom_dim"),
        "ext": lambda: _cmd_dim(args, cfg, "ext_dim"),
        "char": lambda: _cmd_char(args, cfg),
        "loewy": lambda: _cmd_loewy(args, cfg),
        "dual": lambda: _cmd_dual(args, cfg),
        "cover": lambda: _cmd_cover(args, cfg, "projective_cover"),
        "hull": lambda: _cmd_cover(args, cfg, "injective_hull"),
        "rigidity": lambda: _cmd_rigidity(args, cfg),
        "catalog": lambda: _cmd_catalog(args, cfg),
        "verify": lambda: _cmd_verify(args, cfg),
    }
    try:
        return dispatch[args.command]()
    except BrokenPipeError:
        # the reader is gone; send the rest of stdout, flushed at exit, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ArithmeticError) as exc:  # ParseError etc. are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
