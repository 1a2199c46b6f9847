"""Run one ``expocolor`` CLI call with layer spans recorded.

Usage: ``python traced_cli.py SPANS_JSON -- CLI_ARGS...``

Times ``import expocolor.cli`` as the root span ``import.expocolor``,
installs the wrappers from :mod:`tracer`, runs ``expocolor.cli.main``
on the arguments, writes the spans and counters to SPANS_JSON once the
call has returned, and exits with the CLI's exit code.
"""

import json
import sys
import time

from tracer import Tracer, install


def main() -> int:
    out_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON -- CLI_ARGS...")
    tracer = Tracer()
    t0 = time.perf_counter()
    import expocolor.cli

    tracer.add_span("import.expocolor", t0, time.perf_counter())
    missing = install(tracer)
    try:
        code = expocolor.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(
                {"spans": tracer.spans, "counts": tracer.counts, "missing": missing},
                fh,
            )
    return code


if __name__ == "__main__":
    sys.exit(main())
