"""One traced CLI call, for the traced run of ``cli-oneshot``.

    python3 perfbench/cli_probe.py ARGV...

Behaves like ``python -m ghostkit.cli ARGV...`` on stdout and in its exit
code.  It times ``import ghostkit.cli``, ``build_parser()`` and
``main(argv)`` with every layer traced, writes the numbers to stderr as a
last line starting with ``PERFBENCH`` and the spans to
``.perfbench/trace-cli-oneshot.json``.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SPANS = Path(__file__).resolve().parent.parent / ".perfbench" / "trace-cli-oneshot.json"


def main() -> int:
    t0 = time.perf_counter()
    import ghostkit.cli as cli
    import_s = time.perf_counter() - t0

    from layers import Tracer, fusion_cache_sizes, raw_numbers

    tracer = Tracer()
    tracer.install()
    before = fusion_cache_sizes()
    tracer.op = 0
    t1 = time.perf_counter()
    code = cli.main(sys.argv[1:])
    main_s = time.perf_counter() - t1
    tracer.op = None
    sys.stdout.flush()
    raw = raw_numbers(tracer, before, fusion_cache_sizes())
    SPANS.parent.mkdir(exist_ok=True)
    tracer.write_spans(SPANS)
    parser_s = raw.get("cli.parser.self_ns", 0) / 1e9
    report = {"t_start": T_START, "import_s": import_s, "parser_s": parser_s,
              "command_s": main_s - parser_s, "layers": raw}
    print("PERFBENCH " + json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
