"""Child process for the cli-cold workload and for import timing.

    python perfbench/child.py import OUT           time `import teleportsim.cli`
    python perfbench/child.py trace OUT ARGV...    run the CLI with spans recorded
    python perfbench/child.py alloc OUT ARGV...    run the CLI under tracemalloc

Each mode writes one JSON object to OUT. The package is found through
PYTHONPATH, which the parent sets to the checkout's ``src``.
"""

import json
import sys
import time


def main() -> int:
    mode, out = sys.argv[1], sys.argv[2]
    argv = sys.argv[3:]
    if mode == "alloc":
        import tracemalloc

        tracemalloc.start()
    t0 = time.perf_counter()
    import teleportsim.cli

    result = {"import_s": time.perf_counter() - t0}
    code = 0
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        code = teleportsim.cli.main(argv)
        tracer.uninstall()
        result.update(tracer.to_dict())
    elif mode == "alloc":
        code = teleportsim.cli.main(argv)
        result["peak_bytes"] = tracemalloc.get_traced_memory()[1]
    sys.stdout.flush()
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
