"""spderk benchmark: cost per realization of coupled Monte-Carlo studies.

Run from the root of a checkout:

    python3 bench/run.py --workload ex3-ewpref --seed 0 --seconds 35 --trace 0
    python3 bench/run.py --smoke

One run starts a fresh study process for the workload (see workloads.py)
and has it run the study again and again until the timed studies add up
to --seconds.  realization_s is the median of the studies' wall times
per realization; the report gives their quartiles and count beside it.
On a shared two-core 2.0 GHz Xeon virtual machine, other tenants' load
slows every study by up to about 2x, for seconds to minutes at a time.
There, over two sets of ten 35 s runs per workload, the IQR/median of
realization_s across the runs of a set was 0.10-0.35 and the two sets'
medians differed by up to 1.21x.  In earlier sets the median of the
studies spread less than their mean, lower quartile or fastest study,
or than the median of only the studies whose host-speed probe (see
child.py) read fast.  Before every untraced study a separate
fresh process measures set-up time; setup_s is their median.

The study seed is the workload's default seed plus --seed;
at --seed 0 every study's error table must match its golden table in
bench/golden/ (recorded by record_golden.py before any performance
change to the library), at any other seed it must
satisfy what holds for every seed.  A mismatch fails the run.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced studies and reports the per-layer metrics of the traced ones
(see tracing.py), including the tracing overhead.  Counts are per
realization, `_us`/`_ms` times per call, layer shares of the summed self
time of all spans inside the study (on ex2-pool2 including the pool
workers'); trace.remainder_share is the share of the traced studies' wall
time that no span of the study process covers.  The last line of
standard output is one JSON object with keys correct, attempted, failed
and metrics; the lines above it give medians with quartiles and sample
counts, the host-speed probe and the environment.  --smoke runs one untraced and one traced study of every
workload and checks that every metric named in BENCHMARK.json is emitted
with its unit.

A study that fails (spderk raises StudyError when more than 1% of a
(scheme, M) cell's realizations are flagged, which at these realization
counts means any) still counts: its flagged realizations are added to
`failed`, the run reports correct: false and exits with 1.

BLAS threads are pinned to 1 (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS): the
transforms are 64x64 products, and ex2-pool2 already runs one worker per
core of a two-core host.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import merge  # noqa: E402
from workloads import EVALS_PER_STEP, SCHEMES, WORKLOADS  # noqa: E402

REL_TOL = 1e-12   # "same results" tolerance on rms_error / std_error
MONOTONE = ("ewp", "erkm15")
OUTSIDE_STUDY = ("cli.run_cli", "experiments.fit_order", "experiments.pool.wait")

# one-line reasons for the end-to-end metrics (BENCHMARK.json's entries
# take no free text)
WHY = {
    "realization_s": "study wall time per realization: ROADMAP's cost per realization",
    "setup_s": "fresh process to a study able to start: work moved into set-up shows",
    "peak_rss_mb": "largest ru_maxrss of study process and pool workers: batching "
                   "can trade time for memory",
    "ok_frac": "1 - failed_frac (flagged cells / cells attempted), as a metric "
               "that is never 0; a failed study lowers it",
}


class BenchError(Exception):
    pass


# -- processes -----------------------------------------------------------

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    for var in ("SPDERK_SEED", "SPDERK_OUT_DIR"):  # the inputs come from --seed alone
        env.pop(var, None)
    return env


def start_child(*args, stdin=None):
    """A child process in its own session, so that `reap` can also end
    pool workers it leaves behind."""
    return subprocess.Popen(
        [sys.executable, str(BENCH / "child.py")] + [str(a) for a in args],
        cwd=ROOT, env=child_env(), stdin=stdin, stdout=subprocess.PIPE,
        text=True, start_new_session=True)


def reap(proc, timeout):
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    return proc.wait()


def measure_setup(wl, cfg_path):
    """Seconds from starting a fresh process to a study able to start."""
    t0 = time.perf_counter()
    proc = start_child("setup", wl.name, cfg_path)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        code = reap(proc, 30)
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise BenchError("set-up process failed (exit %s)" % code)
    return elapsed


class StudyProcess:
    def __init__(self, wl, cfg_path, out_dir):
        self.proc = start_child("study", wl.name, cfg_path, out_dir,
                                stdin=subprocess.PIPE)
        if self._read() != "ready":
            raise BenchError("study process did not start")

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("study process ended (exit %s)" % self.proc.wait())
        return line.strip()

    def ask(self, cmd):
        self.proc.stdin.write(cmd + "\n")
        self.proc.stdin.flush()
        return json.loads(self._read())

    def close(self):
        self.proc.stdin.close()  # end of input also ends the command loop
        reap(self.proc, 5)
        self.proc.stdout.close()


# -- correctness ---------------------------------------------------------

def read_table(path):
    rows = []
    with open(path) as fh:
        next(fh)
        for line in fh:
            scheme, M, _h, rms, se, flagged = line.strip().split(",")
            rows.append([scheme, int(M), float(rms), float(se), int(flagged)])
    return rows


def golden_path(wl):
    return BENCH / "golden" / ("%s-R%d.csv" % (wl.name, wl.R))


def _close(a, b):
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def check_golden(rows, golden):
    if [r[:2] for r in rows] != [g[:2] for g in golden]:
        return ["table rows differ from the golden table"]
    errs = []
    for (scheme, M, rms, se, flagged), g in zip(rows, golden):
        if flagged != g[4]:
            errs.append("%s M=%d: flagged %d, golden %d" % (scheme, M, flagged, g[4]))
        if not (_close(rms, g[2]) and _close(se, g[3])):
            errs.append("%s M=%d: rms %r se %r, golden %r %r"
                        % (scheme, M, rms, se, g[2], g[3]))
    return errs


def _slope(xs, ys):
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def check_invariants(rows):
    """What holds at every seed: nothing flagged, finite errors, and the
    order-1.5 schemes' errors decreasing in M.  At a few realizations
    adjacent M can swap, so "decreasing" is the trend: a positive log-log
    slope of error against step size, and the finest M below the coarsest."""
    errs = ["%s M=%d: %d flagged" % (r[0], r[1], r[4]) for r in rows if r[4]]
    errs += ["%s M=%d: non-finite error" % (r[0], r[1])
             for r in rows if not (math.isfinite(r[2]) and math.isfinite(r[3]))]
    if errs:
        return errs
    for scheme in MONOTONE:
        Ms, errors = zip(*sorted((r[1], r[2]) for r in rows if r[0] == scheme))
        slope = _slope([-math.log(M) for M in Ms], [math.log(e) for e in errors])
        if not (slope > 0 and errors[-1] < errors[0]):
            errs.append("%s: error does not decrease in M: %r" % (scheme, errors))
    return errs


def check_eval_counts(trace, R_traced, wl):
    """f/b evaluation counts of every (scheme, M) solve against the A7
    cost model times the step count."""
    errs = []
    expect = {"%s@%d" % (s, M): R_traced for s in EVALS_PER_STEP for M in wl.M_list}
    if wl.ref_M:
        expect["ewp@%d" % wl.ref_M] = R_traced
    solves = trace["solves"]
    if set(solves) != set(expect):
        errs.append("solve keys %s, expected %s" % (sorted(solves), sorted(expect)))
    for key, (n, evals, _) in sorted(solves.items()):
        scheme, M = key.split("@")
        want = EVALS_PER_STEP.get(scheme, 0) * int(M) * n
        if n != expect.get(key) or evals != want:
            errs.append("%s: %d solves with %d evaluations, expected %d with %d"
                        % (key, n, evals, expect.get(key, 0), want))
    return errs


# -- metrics -------------------------------------------------------------

def layer_metrics(trace, R, overhead, remainder, wl):
    names = trace["names"]
    work = trace["work"]

    def calls(*ns):
        return sum(names.get(n, (0, 0, 0))[0] for n in ns)

    def self_ns(*ns):
        return sum(names.get(n, (0, 0, 0))[1] for n in ns)

    def total_ns(*ns):
        return sum(names.get(n, (0, 0, 0))[2] for n in ns)

    def per_call(scale, *ns):
        c = calls(*ns)
        return self_ns(*ns) / c / scale if c else 0.0

    busy = sum(rec[1] for n, rec in names.items() if n not in OUTSIDE_STUDY)

    def share(layer):
        return sum(rec[1] for n, rec in names.items()
                   if n.startswith(layer + ".") and n not in OUTSIDE_STUDY) / busy

    ref = trace["solves"].get("ewp@%d" % wl.ref_M, (0, 0, 0))[2] if wl.ref_M else 0
    transforms = ("spectral.to_physical", "spectral.to_spectral")
    m = {
        "qwiener.theta_weights.calls": (calls("qwiener.theta_weights") / R, "count"),
        "qwiener.theta_weights.self_us": (per_call(1e3, "qwiener.theta_weights"), "us"),
        "qwiener.sample_path.calls": (calls("qwiener.sample_path") / R, "count"),
        "qwiener.sample_path.self_ms": (per_call(1e6, "qwiener.sample_path"), "ms"),
        "qwiener.sample_path.bytes": (work.get("qwiener.sample_path", 0) / R, "B"),
        "qwiener.coarsen.calls": (calls("qwiener.coarsen") / R, "count"),
        "qwiener.coarsen.self_us": (per_call(1e3, "qwiener.coarsen"), "us"),
        "qwiener.share": (share("qwiener"), "ratio"),
    }
    for step in ("erkm_step", "ewp_step", "baseline_step"):
        m["schemes.%s.calls" % step] = (calls("schemes." + step) / R, "count")
        m["schemes.%s.self_us" % step] = (per_call(1e3, "schemes." + step), "us")
    cli_calls = calls("cli.run_cli")
    m.update({
        "schemes.reference.s": (ref / R / 1e9, "s"),
        "schemes.solve.self_share": (self_ns("schemes.solve") / busy, "ratio"),
        "schemes.share": (share("schemes"), "ratio"),
        "nemytskii.eval_coeff.calls": (calls("nemytskii.eval_coeff") / R, "count"),
        "nemytskii.eval_coeff.self_us": (per_call(1e3, "nemytskii.eval_coeff"), "us"),
        "nemytskii.share": (share("nemytskii"), "ratio"),
        "spectral.transform.calls": (calls(*transforms) / R, "count"),
        "spectral.transform.self_us": (per_call(1e3, *transforms), "us"),
        "spectral.transform.flops": (sum(work.get(n, 0) for n in transforms) / R, "flop"),
        "spectral.share": (share("spectral"), "ratio"),
        "experiments.run_study.self_s": (self_ns("experiments.run_study") / R / 1e9, "s"),
        "experiments.pool.wait_s": (total_ns("experiments.pool.wait") / R / 1e9, "s"),
        "experiments.fit_order.ms": (per_call(1e6, "experiments.fit_order"), "ms"),
        "experiments.share": (share("experiments"), "ratio"),
        "cli.io_ms": ((total_ns("cli.run_cli") - total_ns("experiments.run_study"))
                      / cli_calls / 1e6 if cli_calls else 0.0, "ms"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.remainder_share": (remainder, "ratio"),
    })
    return m


# -- one run -------------------------------------------------------------

def environment(child_info):
    sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spderk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return dict(child_info, git_sha=sha, src_sha256=digest.hexdigest()[:16],
                blas_threads=child_env()["OPENBLAS_NUM_THREADS"],
                nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)))


def run(wl, seed, seconds, trace):
    R = wl.R
    cells = len(wl.M_list) * len(SCHEMES)
    out_dir = ROOT / ".bench_out" / wl.name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    study_seed = wl.default_seed + seed
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(wl.config(study_seed, R, str(out_dir)), indent=1))
    golden = read_table(golden_path(wl)) if seed == 0 else None

    walls = {"plain": [], "traced": []}
    probes, setups, errors, traces, spanned = [], [], [], [], []
    attempted = failed = 0
    study = StudyProcess(wl, cfg_path, out_dir)
    try:
        while True:
            kind = "traced" if trace and len(walls["plain"]) > len(walls["traced"]) else "plain"
            if not trace:
                setups.append(measure_setup(wl, cfg_path))
            msg = study.ask(kind)
            walls[kind].append(msg["wall"])
            probes.append(msg["probe_ms"])
            attempted += R * cells
            if "failure" in msg:
                failed += msg["flagged"]
                errors.append(msg["failure"])
            else:
                rows = msg["rows"]
                failed += sum(r[4] for r in rows)
                errors += check_golden(rows, golden) if golden else check_invariants(rows)
            if kind == "traced":
                traces.append(msg["trace"])
                spanned.append(msg["spanned_ns"] / 1e9)
            done = sum(walls["plain"]) + sum(walls["traced"]) >= seconds
            if done and (not trace or len(walls["traced"]) == len(walls["plain"])):
                break
        final = study.ask("quit")
    finally:
        study.close()

    if trace:
        merged = merge(traces)
        R_traced = R * len(traces)
        errors += check_eval_counts(merged, R_traced, wl)
        ratios = [t / p for p, t in zip(walls["plain"], walls["traced"])]
        remainder = 1.0 - sum(spanned) / sum(walls["traced"])
        metrics = layer_metrics(merged, R_traced, statistics.median(ratios) - 1.0,
                                remainder, wl)
    else:
        metrics = {
            "realization_s": (statistics.median(walls["plain"]) / R, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (max(final["maxrss_kb"], final["worker_maxrss_kb"]) / 1024.0, "MB"),
            "ok_frac": (1.0 - failed / attempted, "ratio"),
        }
    return {
        "workload": wl.name, "seed": seed, "study_seed": study_seed, "R": R,
        "trace": trace, "walls": walls, "setups": setups, "probes_ms": probes,
        "maxrss_kb": final["maxrss_kb"], "worker_maxrss_kb": final["worker_maxrss_kb"],
        "env": environment(final["env"]), "errors": errors,
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "out_dir": str(out_dir.relative_to(ROOT)),
    }


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def _fmt(values, scale=1.0):
    q1, q2, q3 = _quartiles([v * scale for v in values])
    return "median %.4g (q1 %.4g, q3 %.4g, n=%d)" % (q2, q1, q3, len(values))


def report(res):
    R = res["R"]
    print("workload %s: study seed %d (--seed %d), R=%d realizations per study, trace=%d"
          % (res["workload"], res["study_seed"], res["seed"], R, res["trace"]))
    print("environment: " + json.dumps(res["env"], sort_keys=True))
    for kind, walls in res["walls"].items():
        if walls:
            print("%s studies, seconds per realization: %s" % (kind, _fmt(walls, 1.0 / R)))
    if res["setups"]:
        print("set-up seconds: %s" % _fmt(res["setups"]))
    print("peak RSS: study process %.1f MB, largest pool worker %.1f MB"
          % (res["maxrss_kb"] / 1024.0, res["worker_maxrss_kb"] / 1024.0))
    print("host-speed probe (diagnostic only), ms: %s" % _fmt(res["probes_ms"]))
    print("failed_frac: %d flagged of %d (realization, scheme, M) cells = %g"
          % (res["failed"], res["attempted"], res["failed"] / res["attempted"]))
    if res["trace"]:
        print("trace: spans of the first traced study in %s/spans.json; counts per "
              "realization, _us/_ms per call, shares of the summed self time of "
              "the study's spans" % res["out_dir"])
        if WORKLOADS[res["workload"]].workers > 1:
            print("trace: spans.json holds the main process only; pool workers reduce "
                  "their spans to per-name aggregates, which are merged into the metrics")
        print("trace: the layers' self times cover all but %.3g of the traced studies' "
              "wall time in the study process; that remainder runs outside every span"
              % res["metrics"]["trace.remainder_share"][0])
    for name, (value, unit) in res["metrics"].items():
        print("%-34s %14.6g %-6s %s" % (name, value, unit, WHY.get(name, "")))
    for err in res["errors"][:20]:
        print("CHECK FAILED: " + err)
    check = "golden table" if res["seed"] == 0 else "seed invariants"
    print("correctness (%s): %s" % (check, "FAIL, %d checks" % len(res["errors"])
                                      if res["errors"] else "ok"))


def result_line(res):
    return json.dumps({
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in res["metrics"].items()},
    })


def smoke():
    """One untraced and one traced study of every workload: every metric
    of BENCHMARK.json must be emitted with its unit, and the run correct."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in WORKLOADS.values():
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            res = run(wl, 0, 0.0, trace)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {n: u for n, (v, u) in res["metrics"].items()}
            if got != want:
                problems.append("%s trace=%d: metrics %r, expected %r" % (wl.name, trace, got, want))
            problems += ["%s trace=%d: %s" % (wl.name, trace, e) for e in res["errors"]]
            print("smoke %s trace=%d: %d metrics, %s"
                  % (wl.name, trace, len(got), "FAIL" if res["errors"] else "ok"), flush=True)
    for p in problems:
        print("SMOKE FAILED: " + p)
    return 1 if problems else 0


def _timeout(signum, frame):
    raise BenchError("run exceeded its time limit")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="self-test: one untraced and one traced study of every workload")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "spderk" / "__init__.py").is_file():
        print("bench: no spderk sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        signal.signal(signal.SIGALRM, _timeout)
        signal.alarm(int(args.seconds) + 120)
        wl = WORKLOADS[args.workload]
        res = run(wl, args.seed, args.seconds, args.trace)
        signal.alarm(0)
    except BenchError as e:
        print("bench: %s" % e, file=sys.stderr)
        return 2
    out = ROOT / res["out_dir"] / "result.json"
    out.write_text(json.dumps(res, indent=1, sort_keys=True))
    report(res)
    print(result_line(res))
    return 1 if res["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
