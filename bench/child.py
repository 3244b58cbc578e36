"""One benchmark pass in a fresh interpreter.

Usage: python3 child.py SPEC.json

SPEC names the CLI argv lists to run, the output directory of each, whether
to trace, and the file to write the result to.  The child first times
``import qmengine.cli`` (nothing else is imported before it), then calls
``qmengine.cli.main(argv)`` once per argv list, timing each call.  With
``setup_only`` it stops after the import.
"""

import sys
import time


def main() -> None:
    start = time.perf_counter()
    import qmengine.cli as cli

    setup_s = time.perf_counter() - start

    import json
    import resource
    import traceback

    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    result = {"setup_s": setup_s, "qmengine_file": cli.__file__, "ops": []}
    if not spec.get("setup_only"):
        tracer = None
        if spec["trace"]:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            result["missing"] = tracer.missing
        usage = resource.getrusage(resource.RUSAGE_SELF)
        for run, argv in enumerate(spec["argv"]):
            error = None
            t0 = time.perf_counter()
            try:
                code = cli.main(argv) if tracer is None else tracer.call(run, cli.main, argv)
            except Exception:  # one failed invocation must not hide the others
                code, error = None, traceback.format_exc(limit=3)
            seconds = time.perf_counter() - t0
            result["ops"].append({"exit_code": code, "seconds": seconds, "error": error})
        after = resource.getrusage(resource.RUSAGE_SELF)
        result["cpu_s"] = (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime)
        result["maxrss_kb"] = after.ru_maxrss
        if tracer is not None:
            result["spans"] = tracer.spans
            result["counts"] = dict(tracer.counts)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
