"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Usage: python3 bench/child.py '<json spec>'

The spec is ``{"argv": [...] | null, "trace": bool}``.  The child imports
``cuspidal.cli`` and builds the parser (the set-up every CLI invocation
pays), then, unless ``argv`` is null, times one ``cli.run(argv)`` call with
its output captured.  With ``trace`` the layer functions are wrapped for
that call and restored afterwards.  The last stdout line is a JSON record.
"""

import contextlib
import io
import json
import resource
import sys
from time import perf_counter


def peak_rss_mb() -> float:
    """This process's peak resident set since exec (``VmHWM``).  Linux
    carries the runner's own high-water mark into ``ru_maxrss`` across fork
    and exec, so that is only the fallback where ``/proc`` is missing."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(spec: dict) -> dict:
    t0 = perf_counter()
    import cuspidal.cli as cli

    cli.build_parser()
    record = {"setup_s": perf_counter() - t0}
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            from spans import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install()
        out = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.run(spec["argv"])
        record["wall_s"] = perf_counter() - t0
        record.update(exit=code, output=out.getvalue())
        if tracer is not None:
            tracer.restore()
            record["layers"] = layer_metrics(tracer.spans, tracer.counters,
                                             record["wall_s"])
    record["peak_rss_mb"] = peak_rss_mb()
    return record


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
