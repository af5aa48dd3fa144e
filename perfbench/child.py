"""Run one ``twosfgl`` command inside a fresh interpreter and report timings.

    python3 perfbench/child.py --result r.json --trace 0|1 -- run --config c.cfg --out o

The command after ``--`` goes to ``twosfgl.cli.main`` unchanged.  The result
file records the exit code, the ``time.monotonic()`` instant at which the
first seed's data preparation finished (the end of set-up; the clock is
shared with the parent process, which took the start instant), the import
time of ``twosfgl.cli``, and, when traced, every span and counter.
"""

import argparse
import json
import sys
import time


def _mark_first_return(owner, attr, marks, key):
    inner = getattr(owner, attr)

    def marked(*args, **kwargs):
        result = inner(*args, **kwargs)
        marks.setdefault(key, time.monotonic())
        return result

    setattr(owner, attr, marked)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import_start = time.perf_counter()
    from twosfgl import cli, harness
    import_s = time.perf_counter() - import_start

    # Set-up ends when the first seed's inputs are ready: after z-scoring for
    # `run`, after the CSV load for `fuse`, which does no sampling or split.
    marks = {}
    _mark_first_return(harness, "zscore_features", marks, "run")
    _mark_first_return(cli, "prepare_data", marks, "fuse")

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    code = cli.main(command)
    doc = {"code": code, "import_s": import_s,
           "setup_end": marks.get(command[0] if command else "")}
    if tracer is not None:
        doc["spans"] = tracer.spans
        doc["counts"] = tracer.counts
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
