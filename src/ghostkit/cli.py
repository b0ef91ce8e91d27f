"""Command-line interface.

Exit codes: 0 success, 1 usage, domain or validation error, 2 verification
failure.
All output is deterministic; ``--format json`` emits one JSON document on
stdout (exact rationals serialized as strings).  A reader that closes stdout
early (``ghostkit catalog | head``) ends the command quietly with code 1.
"""

from __future__ import annotations

import argparse
import os
import sys

# Each command imports the engines it runs (fusion, homalg, functors,
# rigidity, verify), so one call loads only those, and ``json`` is imported
# only to print a ``--format json`` payload.  ``characters`` stays here with
# ``modules``: perfbench's traced probe wraps ``FormalSum`` and
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


def _cmd_fuse(args, cfg) -> tuple[dict, str]:
    from .fusion import fuse_detailed

    a = parse_module_expr(args.left)
    b = parse_module_expr(args.right)
    res = fuse_detailed(a, b, strict_guards=cfg.strict_guards)
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
    return payload, text


def _cmd_dim(args, cfg) -> tuple[dict, str]:
    from . import homalg

    src = parse_module_expr(args.source)
    tgt = parse_module_expr(args.target)
    dim = getattr(homalg, args.op)(src, tgt)
    return {"source": str(src), "target": str(tgt), "dim": dim}, str(dim)


def _cmd_char(args, cfg) -> tuple[dict, str]:
    mods = parse_module_expr(args.expr)
    ch = characters.character(mods, cfg.hmax, cfg.jwindow)
    entries = [{"j": str(j), "h": str(h), "dim": d} for j, h, d in ch.entries()]
    payload = {
        "module": str(mods),
        "hmax": str(cfg.hmax),
        "jwindow": [str(cfg.jwindow[0]), str(cfg.jwindow[1])],
        "entries": entries,
    }
    if args.format == "csv":
        return payload, "\n".join(
            ["j,h,dim"] + [f"{e['j']},{e['h']},{e['dim']}" for e in entries])
    text = "\n".join(f"{e['j']:>8s} {e['h']:>8s} {e['dim']:>6d}" for e in entries)
    return payload, text or "(empty)"


def _cmd_loewy(args, cfg) -> tuple[dict, str]:
    mod = parse_single_module(args.expr)
    word = loewy(mod)
    payload = {
        "module": str(mod),
        "diamond": word.diamond,
        "entries": [{"flow": f, "row": r} for f, r in word.entries],
    }
    text = _render_diamond(mod.m) if word.diamond else _render_chain(word.entries)
    return payload, text


def _cmd_dual(args, cfg) -> tuple[dict, str]:
    from .functors import conjugate, dual_restricted, dual_star, dual_tensor, flow

    mods = parse_module_expr(args.expr)
    if args.functor == "flow":
        result = flow(mods, args.ell)
    else:
        functor = {"star": dual_star, "restricted": dual_restricted,
                   "conjugate": conjugate, "tensor": dual_tensor}[args.functor]
        result = functor(mods)
    return {"input": str(mods), "functor": args.functor, "result": str(result)}, str(result)


def _cmd_cover(args, cfg) -> tuple[dict, str]:
    from . import homalg

    mods = parse_module_expr(args.expr)
    result = getattr(homalg, args.op)(mods)
    payload = {"input": str(mods), "result": str(result),
               "summands": _sum_json(result)}
    return payload, str(result)


def _cmd_rigidity(args, cfg) -> tuple[dict, str]:
    from . import rigidity

    value = rigidity.rigidity_constant(args.j, args.w1, ell=args.ell)
    identities_pass = rigidity.identities_hold(args.j)
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
    return payload, text


def _cmd_catalog(args, cfg) -> tuple[dict, str]:
    catalog = sequence_catalog(cfg.catalog_bound)
    payload = {
        "bound": cfg.catalog_bound,
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
    return payload, text


def _cmd_verify(args, cfg) -> tuple[dict, str]:
    from . import verify

    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    results = verify.run_suites(names, cfg)
    payload = {
        "passed": all(c.passed for checks in results.values() for c in checks),
        "suites": {name: [c._asdict() for c in checks] for name, checks in results.items()},
    }
    lines = []
    for name, checks in results.items():
        for c in checks:
            lines.append(f"[{name}] {c.line()}")
        status = "PASS" if all(c.passed for c in checks) else "FAIL"
        lines.append(f"suite {name}: {status}")
    return payload, "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, like every other input
    error: exit code 2 is kept for a verification failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
                                parser_class=lambda **kw: _Parser(parents=[common], **kw))

    # each flag that sets a config key stores its text under the key's name,
    # for ``config.PARSERS`` to read
    p = sub.add_parser("fuse", help="fusion product of two expressions")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--strict-guards", action="store_const", const="on")
    p.set_defaults(run=_cmd_fuse)

    for name, op, help_text in (("hom", "hom_dim", "dimension of the Hom space"),
                                ("ext", "ext_dim", "dimension of the first Ext group")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("source")
        p.add_argument("target")
        p.set_defaults(run=_cmd_dim, op=op)

    p = sub.add_parser("char", help="truncated graded character")
    p.add_argument("expr")
    p.add_argument("--hmax")
    p.add_argument("--jwindow", help="ghost window a:b (use --jwindow=-6:6 "
                                     "for negative bounds)")
    p.set_defaults(run=_cmd_char)

    p = sub.add_parser("loewy", help="Loewy diagram of one module")
    p.add_argument("expr")
    p.set_defaults(run=_cmd_loewy)

    p = sub.add_parser("dual", help="apply a duality or twist functor")
    p.add_argument("expr")
    p.add_argument("--functor", choices=("star", "restricted", "conjugate",
                                         "tensor", "flow"), default="star")
    p.add_argument("--ell", type=int, default=1, help="flow amount for --functor flow")
    p.set_defaults(run=_cmd_dual)

    for name, op, help_text in (("cover", "projective_cover", "projective cover"),
                                ("hull", "injective_hull", "injective hull")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("expr")
        p.set_defaults(run=_cmd_cover, op=op)

    p = sub.add_parser("rigidity", help="rigidity constant and identity checks")
    p.add_argument("--j", type=float, default=0.3)
    p.add_argument("--w1", type=float, default=1.0)
    p.add_argument("--ell", type=int, default=0)
    p.set_defaults(run=_cmd_rigidity)

    p = sub.add_parser("catalog", help="exact sequence catalog")
    p.add_argument("--bound", dest="catalog_bound", metavar="BOUND")
    p.set_defaults(run=_cmd_catalog)

    p = sub.add_parser("verify", help="run property verification suites")
    p.add_argument("--suite", choices=("all",) + _SUITE_NAMES,
                   default="all")
    p.add_argument("--max-length", dest="pool_max_length", metavar="MAX_LENGTH")
    p.add_argument("--max-flow", dest="pool_max_flow", metavar="MAX_FLOW")
    p.set_defaults(run=_cmd_verify)

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

    flags = {key: getattr(args, key) for key in config.PARSERS
             if getattr(args, key, None) is not None}
    try:
        # flags override the file, and their text goes through the file's parsers
        cfg = cfg._replace(**{key: config.PARSERS[key](text) for key, text in flags.items()})
        payload, text = args.run(args, cfg)
        if args.format == "json":
            import json

            text = json.dumps(payload, indent=2, sort_keys=True)
        print(text)
    except BrokenPipeError:
        # the reader is gone; send the rest of stdout, flushed at exit, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ArithmeticError) as exc:  # ParseError etc. are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # only a verify payload carries "passed"
    return 0 if payload.get("passed", True) else 2


if __name__ == "__main__":
    raise SystemExit(main())
