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

import contextlib
import math
import multiprocessing
import os
import sys
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, StudyError, count, is_int, is_label, positive
from .nemytskii import BUILTIN_PROBLEMS, builtin_problem
from .qwiener import coarsen, sample_path
from .schemes import StepContext, resolve_scheme, solve

__all__ = [
    "ReferenceSpec",
    "StudyConfig",
    "ErrorRow",
    "ErrorTable",
    "CSV_HEADER",
    "FIELD_RULES",
    "fit_order",
    "local_slopes",
    "order_summary",
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


def _problem(name, value):
    if not (isinstance(value, str) and value in BUILTIN_PROBLEMS):
        raise ValueError("%s must be one of %s, got %r"
                         % (name, ", ".join(sorted(BUILTIN_PROBLEMS)), value))
    return value


def _M_list(name, value):
    if not (isinstance(value, (list, tuple)) and value
            and all(is_int(M) and M >= 1 for M in value)):
        raise ValueError("%s must be a non-empty list of integers >= 1, got %r"
                         % (name, value))
    M_list = tuple(sorted(int(M) for M in value))
    if len(set(M_list)) < len(M_list) or any(M_list[-1] % M for M in M_list):
        raise ValueError("%s entries must be distinct and each divide the largest, got %r"
                         % (name, value))
    return M_list


def _schemes(name, value):
    if not (isinstance(value, (list, tuple)) and value):
        raise ValueError("%s must be a non-empty list of scheme entries, got %r"
                         % (name, value))
    labels = []
    for sel in value:
        try:
            labels.append(resolve_scheme(sel).label)
        except ValueError as e:
            raise ValueError("%s entry %r: %s" % (name, sel, e)) from e
    if len(set(labels)) < len(labels):
        raise ValueError("%s must have unique labels, got %s" % (name, labels))
    return tuple(value)


def _reference(name, value):
    if value is None:
        return None
    ref = asdict(value) if isinstance(value, ReferenceSpec) else value
    if not (isinstance(ref, dict) and "mode" in ref and set(ref) <= {"mode", "M"}):
        raise ValueError('%s must be an object {"mode": "exact" or "ewp", "M": integer'
                         ' or null}, got %r' % (name, value))
    mode, M = ref["mode"], ref.get("M")
    if mode == "ewp":
        return ReferenceSpec(mode, DESK_M_REF if M is None else count("%s M" % name, M))
    if mode != "exact":
        raise ValueError("%s mode must be 'exact' or 'ewp', got %r" % (name, mode))
    if M is not None:
        raise ValueError("%s M=%r is only read in mode 'ewp'; an exact reference"
                         " takes none" % (name, M))
    return ReferenceSpec(mode)


def _out_dir(name, value):
    if not (value is None or isinstance(value, str) and "\0" not in value):
        raise ValueError("%s must be a string without a NUL character, or null, got %r"
                         % (name, value))
    return value


# Each StudyConfig field's one rule, rule(name, value): the value with its
# type and range checked and made canonical, or a ValueError whose message
# starts with name; nothing is coerced.  StudyConfig.__post_init__ runs
# them in this order, before the checks that combine fields.
FIELD_RULES = {
    "problem": _problem,
    "N": count,
    "K": lambda name, value: None if value is None else count(name, value),
    "T": positive,
    "M_list": _M_list,
    "realizations": count,
    "schemes": _schemes,
    "reference": _reference,
    "seed": lambda name, value: count(name, value, 0),
    "out_dir": _out_dir,
}


def _addressable(key, *shape):
    """A ConfigError naming key if numpy cannot address a float64 array of this shape."""
    if 8 * math.prod(shape) > np.iinfo(np.intp).max:
        raise ConfigError("%s is too large: a float64 array of shape %s is more than"
                          " numpy can address" % (key, shape), key)


@dataclass(frozen=True)
class StudyConfig:
    """A study's settings, checked when built: by its constructor and by
    dataclasses.replace.  Each field holds its rule's canonical value and
    reference its default resolved; a value that fails raises a
    ConfigError whose key is the field it blames (None when the problem
    factory rejects the problem)."""

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

    def __post_init__(self):
        # each field's own rule, then the checks that combine fields
        for key, rule in FIELD_RULES.items():
            try:
                object.__setattr__(self, key, rule(key, getattr(self, key)))
            except ValueError as e:
                raise ConfigError(str(e), key) from e
        _addressable("realizations", self.realizations, len(self.schemes), len(self.M_list))
        # the problem's (N, N) transforms and (N, K) noise matrix before it
        # is built; a K of None is its default, at most N
        _addressable("N", self.N, self.N)
        _addressable("K", self.N, self.K or 1)
        try:
            probe = builtin_problem(self.problem, self.N, self.K)
        except ValueError as e:
            raise ConfigError(str(e)) from e

        ref = self.reference or _reference(
            "reference", {"mode": "ewp" if probe.exact is None else "exact"})
        if ref.mode == "exact":
            if probe.exact is None:
                raise ConfigError("problem %r has no exact solution" % self.problem,
                                  "reference")
        elif ref.M % self.M_list[-1]:
            raise ConfigError("reference M=%d must be a multiple of max(M_list)=%d"
                              % (ref.M, self.M_list[-1]), "reference")
        object.__setattr__(self, "reference", ref)

        fine = _fine_steps(self)
        _addressable("reference" if ref.mode == "ewp" else "M_list", 2, fine, probe.qspec.K)
        h = self.T / fine
        if h < sys.float_info.min:
            raise ConfigError("T=%r is too small: its fine step T/%d is below the"
                              " smallest normal float" % (self.T, fine), "T")
        try:
            h**1.5  # the scale of the mixed integrals sample_path draws
        except OverflowError:
            raise ConfigError("T=%r is too large: its fine step T/%d raised to the"
                              " power 1.5 overflows" % (self.T, fine), "T") from None

    def validated(self):
        """self, which was checked when built; kept only because the
        benchmark's bench/child.py calls it."""
        return self


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
            for name in ("rms_error", "std_error"):
                if getattr(r, name) < 0:
                    raise ValueError("%s at M=%d: %s must be nonnegative, got %r"
                                     % (r.scheme, r.M, name, getattr(r, name)))
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
            fh.write(_csv_row(r) + "\n")

    @classmethod
    def read_csv(cls, fh):
        """The table of a CSV text, blank lines and outer whitespace of a
        line aside.  A row is read only in the form write_csv writes it:
        its six fields parse, write_csv would write that row back as the
        same line, and the label is one resolve_scheme takes.  So "016",
        "-0", "1_6", "+0.5", ".5", "1E-1", "Infinity" and non-ASCII digits
        are malformed; ErrorTable then checks the rows' values."""
        lines = [ln.strip() for ln in fh if ln.strip()]
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError("expected header %r" % CSV_HEADER)
        rows = []
        for ln in lines[1:]:
            try:
                scheme, M, h, rms, se, flagged = ln.split(",")
                row = ErrorRow(scheme, int(M), float(h), float(rms), float(se), int(flagged))
            except ValueError:
                row = None
            if row is None or _csv_row(row) != ln or not is_label(row.scheme):
                raise ValueError("malformed row: %r" % ln)
            rows.append(row)
        return cls(tuple(rows))


def _csv_row(r):
    """An ErrorRow as the line of its table's CSV, without the newline."""
    return "%s,%d,%r,%r,%r,%d" % (r.scheme, r.M, r.h, r.rms_error, r.std_error, r.flagged)


def _reduce_squared(sq):
    """(rms, standard error, flagged count) of a cell's squared errors, one
    per realization, NaN marking a flagged one; R valid errors give the
    RMS's delta-method standard error std(squared errors) / (2 rms sqrt(R))."""
    sq = np.asarray(sq, dtype=float)
    valid = sq[~np.isnan(sq)]
    flagged = sq.size - valid.size
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


def _fine_steps(cfg):
    """Step count of a study's fine path, the one every realization
    samples: the ewp reference's M, or max(M_list) under an exact
    reference."""
    ref = cfg.reference
    return ref.M if ref.mode == "ewp" else max(cfg.M_list)


class _StudyState:
    """Per-worker study machinery: the problem and one StepContext per
    step count (all share the problem's grid, eigenvalues and noise
    matrix)."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.problem = builtin_problem(cfg.problem, cfg.N, cfg.K)
        self.fine_M = _fine_steps(cfg)
        self.ctxs = {
            M: StepContext(self.problem, cfg.T, M)
            for M in set(cfg.M_list) | {self.fine_M}
        }

    def fine_path(self, r):
        """Realization r's fine driving path, keyed by (cfg.seed, r): the
        one its reference and every coarsened level share, and the one
        spderk path dumps."""
        return sample_path(self.problem.qspec, self.fine_M, self.ctxs[self.fine_M].h,
                           self.cfg.seed, r)

    def realization(self, r):
        """Squared terminal errors, shape (schemes, M_list), with NaN for
        a flagged cell, and the first DivergenceError of each flagged
        cell as (r, scheme label or "reference", M, step, mode); a
        diverged reference flags every cell with one entry.

        The fine path is sampled anew for each realization.  The
        reference and each scheme on each coarsened level run on that
        step count's context, and each solve streams its noise fields
        one chunk of steps at a time (see schemes.solve).
        """
        cfg = self.cfg
        fine = self.fine_path(r)
        out = np.full((len(cfg.schemes), len(cfg.M_list)), np.nan)
        try:
            if cfg.reference.mode == "exact":
                beta_T = float(fine.dB.sum())
                truth = self.problem.exact(cfg.T, beta_T)
            else:
                truth = solve(self.ctxs[self.fine_M], "ewp", fine)
        except DivergenceError as e:
            return out, [(r, "reference", self.fine_M, e.step, e.mode)]
        diverged = []
        for jM, M in enumerate(cfg.M_list):
            path = coarsen(fine, self.fine_M // M)
            for iS, sel in enumerate(cfg.schemes):
                try:
                    approx = solve(self.ctxs[M], sel, path)
                except DivergenceError as e:
                    diverged.append((r, e.scheme, M, e.step, e.mode))
                    continue
                d = approx - truth
                out[iS, jM] = float(d @ d)
        return out, diverged


_POOL_STATE = None


def _pool_init(cfg):
    global _POOL_STATE
    try:
        _POOL_STATE = _StudyState(cfg)
    except Exception as e:
        # a pool replaces a worker whose initializer raises, forever: keep
        # the error for _pool_task to raise in run_study, as on one worker
        _POOL_STATE = e


def _pool_task(r):
    if isinstance(_POOL_STATE, Exception):
        raise _POOL_STATE
    return _POOL_STATE.realization(r)


def worker_count(workers):
    """The process count workers asks for: itself if a positive integer,
    the cores this process may use if None; else a ConfigError."""
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if not is_int(workers) or workers < 1:
        raise ConfigError("workers must be a positive integer or None, got %r"
                          % (workers,))
    return workers


def run_study(cfg, workers=1):
    """Run the configured study; returns an ErrorTable.

    workers is a positive count of processes, or None for the cores it may use.
    One loop collects the realizations in index order, whether one
    _StudyState or a pool ran them, so results are bit-identical for any
    worker count.  cfg was checked when it was built.  Raises ConfigError
    for a bad worker count, and StudyError if more than 1% of the
    realizations of any (scheme, M) cell were flagged (reference or
    scheme divergence).
    """
    workers = worker_count(workers)
    R = cfg.realizations
    workers = min(workers, R)

    sq = np.empty((R, len(cfg.schemes), len(cfg.M_list)))
    diverged = []  # (realization, scheme or "reference", M, step, mode)
    with contextlib.ExitStack() as stack:
        if workers == 1:
            results = map(_StudyState(cfg).realization, range(R))
        else:
            pool = stack.enter_context(multiprocessing.get_context().Pool(
                workers, initializer=_pool_init, initargs=(cfg,)))
            # one realization per task: it runs far longer than its result pickles
            results = pool.imap(_pool_task, range(R))
        for r, (res, flags) in enumerate(results):
            sq[r] = res
            diverged += flags

    labels = [resolve_scheme(s).label for s in cfg.schemes]
    rows = []
    bad = []
    for iS, label in enumerate(labels):
        for jM, M in enumerate(cfg.M_list):
            rms, se, flagged = _reduce_squared(sq[:, iS, jM])
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
