"""Processes the harness (run.py) starts; not meant to be run by hand.

    child.py setup <workload> <config.json>
        Set up the study as a fresh process would, print "ready" and exit.
    child.py study <workload> <config.json> <out_dir>
        Set up once, then serve commands read from stdin, one per line:
        "plain" or "traced" runs the study once and prints one JSON line
        with its wall time, error table, or the reason the study failed
        and its flagged count, and (traced) span aggregate;
        "quit" prints the process's peak memory and the environment and
        exits.

spderk is imported from the checkout's src/ (the harness sets
PYTHONPATH); nothing in src/ is changed.
"""

import io
import json
import multiprocessing
import os
import re
import resource
import sys
import time

import numpy as np

from workloads import SCHEMES, WORKLOADS


def probe_ms():
    """Host-speed probe: a fixed 64x64 matvec kernel, in milliseconds.
    A diagnostic beside each timed study, never used to scale a result."""
    a = np.full((64, 64), 1.0 / 64.0)
    v = np.ones(64)
    t0 = time.perf_counter()
    for _ in range(2000):
        v = a @ v
    return (time.perf_counter() - t0) * 1e3


def setup(wl, cfg_path):
    from spderk import cli, experiments  # import time is part of set-up

    cfg = cli.load_config(cfg_path).validated()
    if wl.workers > 1:
        with multiprocessing.get_context().Pool(
            wl.workers, initializer=experiments._pool_init, initargs=(cfg,)
        ) as pool:
            pool.apply(os.getpid)  # returns once a worker holds its study state
            print("ready", flush=True)
    else:
        experiments._StudyState(cfg)
        print("ready", flush=True)


def _blas_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):  # show_config's layout differs between numpy versions
        return "unknown"


def _flagged(message, wl):
    """Flagged realizations named in a failed study's message.  run_study
    names every (scheme, M) cell with more than 1% of its realizations
    flagged, which at R < 100 is every cell with any; a failure that
    names none counts every cell of the study as failed."""
    counts = [int(n) for n in re.findall(r" at M=\d+: (\d+) of \d+", message)]
    return sum(counts) if counts else wl.R * len(wl.M_list) * len(SCHEMES)


def serve(wl, cfg_path, out_dir):
    from spderk import cli, experiments
    from spderk.errors import SpderkError

    from tracing import Tracer, merge

    cfg = cli.load_config(cfg_path).validated()
    tracer = Tracer(out_dir)
    spans_written = False
    print("ready", flush=True)

    for line in sys.stdin:
        cmd = line.strip()
        if cmd == "quit":
            break
        traced = cmd == "traced"
        msg = {"probe_ms": probe_ms()}
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            if wl.workers > 1:
                err = io.StringIO()
                with open(os.devnull, "w") as sink:
                    code = cli.run_cli(["study", cfg_path, "--workers", str(wl.workers)],
                                       out=sink, err=err)
                msg["wall"] = time.perf_counter() - t0
                if code == 0:
                    with open(os.path.join(out_dir, "%s_errors.csv" % cfg.problem)) as fh:
                        table = experiments.ErrorTable.read_csv(fh)
                else:
                    msg["failure"] = "spderk study exited with %d: %s" % (
                        code, err.getvalue().strip())
            else:
                try:
                    table = experiments.run_study(cfg, workers=wl.workers)
                    experiments.order_summary(table)
                except SpderkError as e:
                    msg["failure"] = "study failed: %s" % e
                msg["wall"] = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        if "failure" in msg:
            msg["flagged"] = _flagged(msg["failure"], wl)
        else:
            msg["rows"] = [[r.scheme, r.M, r.rms_error, r.std_error, r.flagged]
                           for r in table.rows]
        if traced:
            msg["spanned_ns"] = tracer.root_ns()
            msg["trace"] = merge([tracer.aggregate()] + tracer.collect_workers())
            if not spans_written:
                tracer.dump_spans(os.path.join(out_dir, "spans.json"))
                spans_written = True
        print(json.dumps(msg), flush=True)

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({
        "maxrss_kb": own,
        "worker_maxrss_kb": workers,
        "env": {
            "numpy": np.__version__,
            "blas": _blas_info(),
            "python": "%d.%d.%d" % sys.version_info[:3],
            "start_method": multiprocessing.get_start_method(),
        },
    }), flush=True)


def main(argv):
    mode, wl = argv[1], WORKLOADS[argv[2]]
    if mode == "setup":
        setup(wl, argv[3])
    elif mode == "study":
        serve(wl, argv[3], argv[4])
    else:
        raise SystemExit("unknown mode %r" % mode)


if __name__ == "__main__":
    main(sys.argv)
