"""Outside-in tracing of spderk's layers.

The library is not instrumented.  Instead, `Tracer.install` replaces the
public functions at the names their callers bound them to (the modules
use ``from .x import y``, so the wrapper goes on the caller's name) with
wrappers that record one span per call: (name, start ns, end ns, parent
span id).  Spans are kept in memory; `aggregate` reduces them to per-name
call counts and self times, where a span's self time is its duration
minus that of its children.

Pool workers are forked with the wrappers in place.  Each worker records
the spans of one realization, reduces them and writes the aggregate to a
file in `worker_dir`; the main process merges those files.  Raw spans of
workers are not kept.
"""

import json
import multiprocessing
import os
import time


def _transform_flops(args, kwargs):
    grid = args[1]
    return 2 * grid.N * grid.n_nodes


def _path_bytes(args, kwargs):
    q, M = args[0], args[1]
    return M * q.K * 2 * 8


def _targets():
    """(owner, attribute, span name, work per call or None) for each
    wrapped function, at the name its caller looks it up by."""
    import spderk.cli as cli
    import spderk.experiments as ex
    import spderk.schemes as sc

    return (
        (ex, "sample_path", "qwiener.sample_path", _path_bytes),
        (ex, "coarsen", "qwiener.coarsen", None),
        (sc, "theta_weights", "qwiener.theta_weights", None),
        (sc, "eval_coeff", "nemytskii.eval_coeff", None),
        (sc, "to_physical", "spectral.to_physical", _transform_flops),
        (sc, "to_spectral", "spectral.to_spectral", _transform_flops),
        (sc, "erkm_step", "schemes.erkm_step", None),
        (sc, "ewp_step", "schemes.ewp_step", None),
        (sc, "baseline_step", "schemes.baseline_step", None),
        (ex._StudyState, "realization", "experiments.realization", None),
        (ex, "fit_order", "experiments.fit_order", None),
        (ex, "run_study", "experiments.run_study", None),
        (cli, "run_study", "experiments.run_study", None),
        (cli, "run_cli", "cli.run_cli", None),
    )


class Tracer:
    def __init__(self, worker_dir):
        self.worker_dir = worker_dir
        self.spans = []      # index = span id; (name, t0, t1, parent)
        self.stack = [-1]
        self.solve_keys = {}  # span id of a solve -> "scheme@M"
        self.work = {}       # span name -> summed work units
        self._saved = []

    # -- recording -------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.stack[:] = [-1]
        self.solve_keys.clear()
        self.work.clear()

    def open(self):
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        return sid, time.perf_counter_ns()

    def close(self, name, sid, t0):
        t1 = time.perf_counter_ns()
        self.stack.pop()
        self.spans[sid] = (name, t0, t1, self.stack[-1])

    def _wrap(self, name, fn, work):
        spans, stack, clock, work_sums = self.spans, self.stack, time.perf_counter_ns, self.work

        # open/close inlined over locals: this runs some 10^5 times per
        # traced study, and its cost is the tracing overhead
        def traced(*args, **kwargs):
            if work is not None:
                work_sums[name] = work_sums.get(name, 0) + work(args, kwargs)
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, stack[-1])

        return traced

    def _wrap_solve(self, fn):
        traced = self._wrap("schemes.solve", fn, None)
        spans, keys = self.spans, self.solve_keys

        def solve(problem, scheme, path, *args, **kwargs):
            keys[len(spans)] = "%s@%d" % (scheme, path.M)
            return traced(problem, scheme, path, *args, **kwargs)

        return solve

    def _wrap_pool_task(self, fn):
        tracer = self

        def _pool_task(r):
            tracer.reset()
            out = fn(r)
            path = os.path.join(tracer.worker_dir, "worker-%d-%d.json" % (os.getpid(), r))
            with open(path, "w") as fh:
                json.dump(tracer.aggregate(), fh)
            return out

        # pickled by reference: the forked worker resolves it to this wrapper
        _pool_task.__module__ = fn.__module__
        _pool_task.__qualname__ = fn.__qualname__
        return _pool_task

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        import spderk.experiments as ex

        self.reset()
        for owner, attr, name, work in _targets():
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr), work))
        self._patch(ex, "solve", self._wrap_solve(ex.solve))
        self._patch(ex, "_pool_task", self._wrap_pool_task(ex._pool_task))
        self._patch(ex, "multiprocessing", _MultiprocessingShim(self))

    def uninstall(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)

    # -- reduction -------------------------------------------------------

    def aggregate(self):
        """Per-name calls / self / total ns, work units, and per-solve-key
        eval counts, from the spans recorded since the last reset."""
        spans = self.spans
        child_ns = [0] * len(spans)
        key_of = [None] * len(spans)
        names = {}
        solves = {}
        for sid, (name, t0, t1, parent) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += t1 - t0
                key_of[sid] = key_of[parent]
            if sid in self.solve_keys:
                key_of[sid] = self.solve_keys[sid]
        for sid, (name, t0, t1, parent) in enumerate(spans):
            rec = names.setdefault(name, [0, 0, 0])
            rec[0] += 1
            rec[1] += t1 - t0 - child_ns[sid]
            rec[2] += t1 - t0
            if name == "schemes.solve":
                srec = solves.setdefault(key_of[sid], [0, 0, 0])
                srec[0] += 1
                srec[2] += t1 - t0
            elif name == "nemytskii.eval_coeff" and key_of[sid] is not None:
                solves.setdefault(key_of[sid], [0, 0, 0])[1] += 1
        return {"names": names, "solves": solves, "work": dict(self.work)}

    def root_ns(self):
        """Summed duration of the spans that have no parent: the part of
        this process's time that some span covers."""
        return sum(t1 - t0 for _, t0, t1, parent in self.spans if parent < 0)

    def collect_workers(self):
        """Aggregates written by pool workers since the last call."""
        out = []
        for fn in sorted(os.listdir(self.worker_dir)):
            if fn.startswith("worker-"):
                path = os.path.join(self.worker_dir, fn)
                with open(path) as fh:
                    out.append(json.load(fh))
                os.remove(path)
        return out

    def dump_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans}, fh)


def merge(aggs):
    """Sum aggregates (see Tracer.aggregate)."""
    out = {"names": {}, "solves": {}, "work": {}}
    for agg in aggs:
        for part in ("names", "solves"):
            for key, rec in agg[part].items():
                acc = out[part].setdefault(key, [0, 0, 0])
                for i, v in enumerate(rec):
                    acc[i] += v
        for key, v in agg["work"].items():
            out["work"][key] = out["work"].get(key, 0) + v
    return out


class _MultiprocessingShim:
    """Stands in for the multiprocessing module inside spderk.experiments,
    so that the main process's waits on the pool are recorded as spans."""

    def __init__(self, tracer):
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(multiprocessing, attr)

    def get_context(self, method=None):
        return _ContextShim(multiprocessing.get_context(method), self._tracer)


class _ContextShim:
    def __init__(self, ctx, tracer):
        self._ctx = ctx
        self._tracer = tracer

    def Pool(self, *args, **kwargs):
        return _TracedPool(self._ctx.Pool(*args, **kwargs), self._tracer)


class _TracedPool:
    def __init__(self, pool, tracer):
        self._pool = pool
        self._tracer = tracer

    def __enter__(self):
        self._pool.__enter__()
        return self

    def __exit__(self, *exc):
        return self._pool.__exit__(*exc)

    def imap(self, fn, iterable, chunksize=1):
        it = self._pool.imap(fn, iterable, chunksize)
        tracer = self._tracer
        while True:
            sid, t0 = tracer.open()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.close("experiments.pool.wait", sid, t0)
            yield item
