"""Monte-Carlo convergence studies.

A study fixes a built-in problem and a list of schemes, samples R
independent driving paths at the finest time resolution, computes a
truth per path (the exact solution where available, otherwise the
Wagner-Platen scheme on the fine path), reruns every scheme on coarsened
versions of the *same* path, and reduces squared terminal H-norm errors
to an ErrorTable of RMS errors with delta-method standard errors.

Coupling truth and approximations through one path per realization is
what makes desk-scale runs (R of order 100) resolve the convergence
orders cleanly; the per-realization work is embarrassingly parallel and
results are reduced in realization-index order so the output is
bit-identical for any worker count.
"""

import math
import multiprocessing
import os
import sys
import warnings
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .errors import ConfigError, DivergenceError, StudyError, is_int
from .nemytskii import BUILTIN_PROBLEMS, builtin_problem
from .qwiener import coarsen, sample_path
from .schemes import StepContext, resolve_scheme, solve

__all__ = [
    "ReferenceSpec",
    "StudyConfig",
    "ErrorRow",
    "ErrorTable",
    "CSV_HEADER",
    "field_type_error",
    "fit_order",
    "local_slopes",
    "order_summary",
    "fine_steps",
    "worker_count",
    "run_study",
]

CSV_HEADER = "scheme,M,h,rms_error,std_error,flagged"

DEFAULT_SCHEMES = ("lie", "exe", "dfmm", "ewp", "erkm15")
DESK_M_LIST = (8, 16, 32, 64, 128, 256, 512)
DESK_M_REF = 4096

# divergences a StudyError names, in realization order
_NAMED_DIVERGENCES = 3


@dataclass(frozen=True)
class ReferenceSpec:
    """Truth provider: mode 'exact' (closed-form solution fed the fine
    path's terminal Brownian value; takes no M) or 'ewp' at M steps."""

    mode: str
    M: int = None


def _is_real(v):
    return (isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool))


def field_type_error(key, value):
    """Why `value` cannot be the StudyConfig field `key` (a phrase such as
    "must be an integer, got 3.7"), or None if its type is right.
    Nothing is coerced: 3.7 is not an integer and "exe" is not a list."""
    if key in ("N", "realizations", "seed"):
        ok, want = is_int(value), "an integer"
    elif key == "K":
        ok, want = value is None or is_int(value), "an integer or null"
    elif key == "T":
        ok, want = _is_real(value), "a number"
    elif key == "M_list":
        ok = isinstance(value, (list, tuple)) and all(is_int(M) for M in value)
        want = "a list of integers"
    elif key == "schemes":
        ok, want = isinstance(value, (list, tuple)), "a list of scheme entries"
    elif key == "reference":
        ref = asdict(value) if isinstance(value, ReferenceSpec) else value
        ok = value is None or (isinstance(ref, dict)
                               and set(ref) <= {"mode", "M"}
                               and isinstance(ref.get("mode"), str)
                               and (ref.get("M") is None or is_int(ref["M"])))
        want = 'an object {"mode": name, "M": integer or null}'
    elif key in ("problem", "out_dir"):
        ok = isinstance(value, str) or (key == "out_dir" and value is None)
        want = "a string"
    else:
        return None
    return None if ok else "must be %s, got %r" % (want, value)


@dataclass(frozen=True)
class StudyConfig:
    problem: str
    N: int = 64
    K: int = None             # None: problem default (1 for example1, else N)
    T: float = 1.0
    M_list: tuple = DESK_M_LIST
    realizations: int = 200
    schemes: tuple = DEFAULT_SCHEMES
    reference: ReferenceSpec = None
    seed: int = 0
    out_dir: str = None

    def validated(self):
        """Canonical copy with defaults resolved; raises ConfigError."""
        for fld in fields(self):
            why = field_type_error(fld.name, getattr(self, fld.name))
            if why:
                raise ConfigError("%s %s" % (fld.name, why))
        if self.problem not in BUILTIN_PROBLEMS:
            raise ConfigError(
                "unknown problem %r (have: %s)"
                % (self.problem, ", ".join(sorted(BUILTIN_PROBLEMS)))
            )
        if self.N < 1:
            raise ConfigError("N must be >= 1")
        if self.K is not None and self.K < 1:
            raise ConfigError("K must be >= 1 (or null for the problem's default)")
        # compared, not converted: float() of a huge integer overflows
        if not 0 < self.T <= sys.float_info.max:
            raise ConfigError("T must be finite and > 0")
        if self.realizations < 1:
            raise ConfigError("realizations must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")

        M_list = tuple(int(M) for M in self.M_list)
        if not M_list or any(M < 1 for M in M_list):
            raise ConfigError("M_list must be nonempty positive integers")
        if len(set(M_list)) != len(M_list):
            raise ConfigError("M_list has duplicates")
        M_list = tuple(sorted(M_list))
        fine = M_list[-1]
        for M in M_list:
            if fine % M:
                raise ConfigError("every M in M_list must divide max(M_list)"
                                  " (got %d vs %d)" % (M, fine))

        try:
            probe = builtin_problem(self.problem, self.N, self.K)
        except ValueError as e:
            raise ConfigError(str(e)) from e

        ref = self.reference
        if ref is None:
            ref = (ReferenceSpec("exact") if probe.exact is not None
                   else ReferenceSpec("ewp", DESK_M_REF))
        elif isinstance(ref, dict):
            ref = ReferenceSpec(**ref)
        if ref.mode == "exact":
            if ref.M is not None:
                raise ConfigError("reference M=%r is only read in mode 'ewp';"
                                  " an exact reference takes none" % (ref.M,))
            if probe.exact is None:
                raise ConfigError("problem %r has no exact solution" % self.problem)
            if probe.qspec.K != 1:
                raise ConfigError("exact reference needs a single noise mode")
        elif ref.mode == "ewp":
            M_ref = DESK_M_REF if ref.M is None else int(ref.M)
            if M_ref < fine or M_ref % fine:
                raise ConfigError(
                    "reference M=%d must be a multiple of max(M_list)=%d"
                    % (M_ref, fine)
                )
            ref = ReferenceSpec("ewp", M_ref)
        else:
            raise ConfigError("reference mode must be 'exact' or 'ewp'")

        schemes = tuple(self.schemes)
        if not schemes:
            raise ConfigError("schemes list is empty")
        labels = []
        for sel in schemes:
            try:
                labels.append(resolve_scheme(sel).label)
            except ValueError as e:
                raise ConfigError("bad scheme entry %r: %s" % (sel, e)) from e
        if len(set(labels)) != len(labels):
            raise ConfigError("scheme labels must be unique: %s" % (labels,))

        cfg = replace(self, M_list=M_list, reference=ref, schemes=schemes,
                      T=float(self.T))
        if cfg.T / fine_steps(cfg) < sys.float_info.min:
            raise ConfigError("T=%r is too small: its fine step T/%d is below the"
                              " smallest normal float" % (self.T, fine_steps(cfg)))
        return cfg


@dataclass(frozen=True)
class ErrorRow:
    scheme: str
    M: int
    h: float
    rms_error: float
    std_error: float
    flagged: int


@dataclass(frozen=True)
class ErrorTable:
    rows: tuple

    def __post_init__(self):
        keys = [(r.scheme, r.M) for r in self.rows]
        if len(set(keys)) != len(keys):
            raise ValueError("rows must be uniquely keyed by (scheme, M)")
        for r in self.rows:
            if r.M < 1:
                raise ValueError("%s: M must be >= 1, got %d" % (r.scheme, r.M))
            if not 0 < r.h <= sys.float_info.max:
                raise ValueError("%s at M=%d: h must be finite and > 0, got %r"
                                 % (r.scheme, r.M, r.h))
            if r.rms_error < 0:
                raise ValueError("rms_error must be nonnegative")
            if r.flagged < 0:
                raise ValueError("%s at M=%d: flagged must be >= 0, got %d"
                                 % (r.scheme, r.M, r.flagged))
        # the local slopes divide by log(h_i / h_{i+1})
        for scheme in self.schemes():
            rows = sorted(self.rows_for(scheme), key=lambda r: r.M)
            for a, b in zip(rows, rows[1:]):
                if not b.h < a.h:
                    raise ValueError("%s: h must decrease as M grows, got h=%r at"
                                     " M=%d and h=%r at M=%d"
                                     % (scheme, a.h, a.M, b.h, b.M))

    def schemes(self):
        seen = []
        for r in self.rows:
            if r.scheme not in seen:
                seen.append(r.scheme)
        return seen

    def rows_for(self, scheme):
        return [r for r in self.rows if r.scheme == scheme]

    def write_csv(self, fh):
        fh.write(CSV_HEADER + "\n")
        for r in self.rows:
            fh.write("%s,%d,%r,%r,%r,%d\n"
                     % (r.scheme, r.M, r.h, r.rms_error, r.std_error, r.flagged))

    @classmethod
    def read_csv(cls, fh):
        lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError("expected header %r" % CSV_HEADER)
        rows = []
        for ln in lines[1:]:
            parts = ln.split(",")
            if len(parts) != 6:
                raise ValueError("malformed row: %r" % ln)
            rows.append(ErrorRow(parts[0], int(parts[1]), float(parts[2]),
                                 float(parts[3]), float(parts[4]), int(parts[5])))
        return cls(tuple(rows))


def _reduce_squared(sq, R_total):
    """(rms, standard error, flagged count) from squared errors with NaN
    marking flagged realizations; the standard error of the RMS comes
    from the delta method: std(squared errors) / (2 rms sqrt(R))."""
    sq = np.asarray(sq, dtype=float)
    valid = sq[~np.isnan(sq)]
    flagged = R_total - valid.size
    if valid.size == 0:
        return float("nan"), float("nan"), flagged
    rms = math.sqrt(float(valid.mean()))
    if rms == 0.0 or valid.size < 2:
        return rms, 0.0, flagged
    se = float(valid.std(ddof=1)) / (2.0 * rms * math.sqrt(valid.size))
    return rms, se, flagged


def fit_order(table, scheme):
    """Least-squares slope of log(rms error) against log(h).

    Returns (slope, residual).  Rows with nonpositive or non-finite
    errors are dropped with a warning; fewer than 3 usable rows is an
    error.
    """
    rows = table.rows_for(scheme)
    if not rows:
        raise ValueError("no rows for scheme %r" % scheme)
    usable = [r for r in rows if r.rms_error > 0 and math.isfinite(r.rms_error)]
    if len(usable) < len(rows):
        warnings.warn("%s: dropped %d rows with nonpositive errors"
                      % (scheme, len(rows) - len(usable)))
    if len(usable) < 3:
        raise ValueError("need at least 3 usable rows to fit an order")
    x = np.log([r.h for r in usable])
    y = np.log([r.rms_error for r in usable])
    coeffs, res, _, _, _ = np.polyfit(x, y, 1, full=True)
    residual = float(res[0]) if res.size else 0.0
    return float(coeffs[0]), residual


def local_slopes(table, scheme):
    """[(M_i, M_{i+1}, slope)] for each adjacent pair of usable rows in
    increasing M, slope = log(e_i / e_{i+1}) / log(h_i / h_{i+1}).

    Beside the global fit these show whether the fit is taken in the
    asymptotic regime: a pre-asymptotic window has drifting slopes.
    Rows with nonpositive or non-finite errors are skipped, as in
    fit_order.
    """
    rows = sorted((r for r in table.rows_for(scheme)
                   if r.rms_error > 0 and math.isfinite(r.rms_error)),
                  key=lambda r: r.M)
    return [(a.M, b.M, math.log(a.rms_error / b.rms_error) / math.log(a.h / b.h))
            for a, b in zip(rows, rows[1:])]


def order_summary(table):
    """[(scheme, slope, residual)] for every scheme with a fittable set
    of rows; schemes without one are silently skipped."""
    out = []
    for scheme in table.schemes():
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                slope, residual = fit_order(table, scheme)
        except ValueError:
            continue
        out.append((scheme, slope, residual))
    return out


def fine_steps(cfg):
    """Step count of a validated study's fine path, the one every
    realization samples: the ewp reference's M, or max(M_list) under an
    exact reference."""
    ref = cfg.reference
    return ref.M if ref.mode == "ewp" else max(cfg.M_list)


class _StudyState:
    """Per-worker study machinery: the problem, one StepContext per step
    count (each with its own noise-field table of at most CHUNK_STEPS
    steps; all share the problem's grid, operator and noise matrix), and
    the (2, fine_M, K) arrays every realization samples its fine path
    into."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.problem = builtin_problem(cfg.problem, cfg.N, cfg.K)
        self.fine_M = fine_steps(cfg)
        self.fine_arrays = np.empty((2, self.fine_M, self.problem.qspec.K))
        self.ctxs = {
            M: StepContext(self.problem, cfg.T, M)
            for M in set(cfg.M_list) | {self.fine_M}
        }

    def realization(self, r):
        """Squared terminal errors, shape (schemes, M_list), with NaN for
        a flagged cell, and the first DivergenceError of each flagged
        cell as (r, scheme label or "reference", M, step, mode); a
        diverged reference flags every cell with one entry.

        The fine path is sampled into the study's own arrays.  The
        reference and each scheme on each coarsened level stream their
        noise fields through the table of that step count's context
        (see schemes.solve).
        """
        cfg = self.cfg
        fine = sample_path(self.problem.qspec, self.fine_M, self.ctxs[self.fine_M].h,
                           cfg.seed, r, out=self.fine_arrays)
        out = np.full((len(cfg.schemes), len(cfg.M_list)), np.nan)
        try:
            if cfg.reference.mode == "exact":
                beta_T = float(fine.dB.sum())
                truth = self.problem.exact(cfg.T, beta_T)
            else:
                with np.errstate(over="ignore", invalid="ignore"):
                    truth = solve(self.problem, "ewp", fine, ctx=self.ctxs[self.fine_M])
        except DivergenceError as e:
            return out, [(r, "reference", self.fine_M, e.step, e.mode)]
        diverged = []
        for jM, M in enumerate(cfg.M_list):
            path = coarsen(fine, self.fine_M // M)
            for iS, sel in enumerate(cfg.schemes):
                try:
                    with np.errstate(over="ignore", invalid="ignore"):
                        approx = solve(self.problem, sel, path, ctx=self.ctxs[M])
                except DivergenceError as e:
                    diverged.append((r, e.scheme, M, e.step, e.mode))
                    continue
                d = approx - truth
                out[iS, jM] = float(d @ d)
        return out, diverged


_POOL_STATE = None


def _pool_init(cfg):
    global _POOL_STATE
    _POOL_STATE = _StudyState(cfg)


def _pool_task(r):
    return _POOL_STATE.realization(r)


def worker_count(workers):
    """The process count workers asks for: itself if a positive integer,
    all cores if None; anything else raises a ConfigError."""
    if workers is None:
        return os.cpu_count() or 1
    if not is_int(workers) or workers < 1:
        raise ConfigError("workers must be a positive integer or None, got %r"
                          % (workers,))
    return workers


def run_study(cfg, workers=1):
    """Run the configured study; returns an ErrorTable.

    workers is a positive count of processes, or None for all cores.
    Results are reduced in realization-index order and are bit-identical
    for any worker count.  Raises ConfigError for a bad config or worker
    count, and StudyError if more than 1% of the realizations of any
    (scheme, M) cell were flagged (reference or scheme divergence).
    """
    workers = worker_count(workers)
    cfg = cfg.validated()
    R = cfg.realizations
    workers = min(workers, R)

    sq = np.empty((R, len(cfg.schemes), len(cfg.M_list)))
    diverged = []  # (realization, scheme or "reference", M, step, mode)
    if workers == 1:
        state = _StudyState(cfg)
        for r in range(R):
            sq[r], flags = state.realization(r)
            diverged += flags
    else:
        with multiprocessing.get_context().Pool(
            workers, initializer=_pool_init, initargs=(cfg,)
        ) as pool:
            chunk = max(1, R // (workers * 8))
            for r, (res, flags) in enumerate(pool.imap(_pool_task, range(R), chunk)):
                sq[r] = res
                diverged += flags

    labels = [resolve_scheme(s).label for s in cfg.schemes]
    rows = []
    bad = []
    for iS, label in enumerate(labels):
        for jM, M in enumerate(cfg.M_list):
            rms, se, flagged = _reduce_squared(sq[:, iS, jM], R)
            rows.append(ErrorRow(label, M, cfg.T / M, rms, se, flagged))
            if flagged > 0.01 * R:
                bad.append((label, M, flagged))
    if bad:
        detail = "; ".join("%s at M=%d: %d of %d" % (l, M, n, R) for l, M, n in bad)
        first = "; ".join("realization %d: %s, M=%d, step %d, mode %d" % d
                          for d in diverged[:_NAMED_DIVERGENCES])
        raise StudyError("flagged realizations exceed 1%%: %s; first divergences: %s"
                         % (detail, first))
    return ErrorTable(tuple(rows))
