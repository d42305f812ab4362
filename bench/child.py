"""One benchmark operation in a fresh process.

    python3 bench/child.py SPEC_JSON SPAWN_TIME
    python3 bench/child.py --env

SPEC_JSON names the CLI argument lists to run, whether to trace, and the
file to write the result to.  SPAWN_TIME is the parent's CLOCK_MONOTONIC
reading taken just before it started this process, so set-up time is
measured from spawn to ``import qens.cli`` done.  Between that import and
the first command the process loads only what it needs to read the spec
and, when tracing, the tracer; the modules it adds there are listed in the
result, so a check can see that no module the program might import lazily
is loaded ahead of the commands.  With --env the process only imports the
package and prints the library versions as JSON.
"""

import sys
import time


def _run(argv, main) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 1


def main() -> int:
    import qens.cli

    ready = time.monotonic()
    loaded = set(sys.modules)

    import json
    import resource

    if sys.argv[1] == "--env":
        import numpy
        import scipy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        print(
            json.dumps(
                {
                    "python": sys.version.split()[0],
                    "numpy": numpy.__version__,
                    "scipy": scipy.__version__,
                    "blas": f"{blas.get('name')} {blas.get('version')}",
                }
            )
        )
        return 0

    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    preloaded = sorted(set(sys.modules) - loaded)
    before = resource.getrusage(resource.RUSAGE_SELF)
    commands = []
    for argv in spec["commands"]:
        covered = tracer.main_covered_s if tracer else 0.0
        t0 = time.perf_counter()
        code = _run(argv, qens.cli.main)
        wall = time.perf_counter() - t0
        entry = {"command": argv[0], "code": code, "wall_s": wall}
        if tracer:
            entry["unattributed_s"] = wall - (tracer.main_covered_s - covered)
        commands.append(entry)
    after = resource.getrusage(resource.RUSAGE_SELF)

    result = {
        "setup_s": ready - float(sys.argv[2]),
        "wall_s": sum(c["wall_s"] for c in commands),
        "cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        "minflt": after.ru_minflt - before.ru_minflt,
        "maxrss_kb": after.ru_maxrss,
        "commands": commands,
        "preloaded": preloaded,
    }
    if tracer:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
