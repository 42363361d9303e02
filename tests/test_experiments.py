"""Study harness tests: error reduction, order fitting, table I/O, and
small end-to-end runs exercising the coupled-path protocol."""

import io
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spderk.experiments as experiments
from spderk.errors import ConfigError, DivergenceError, StudyError, is_label
from spderk.experiments import (
    CSV_HEADER,
    _StudyState,
    ErrorRow,
    ErrorTable,
    ReferenceSpec,
    StudyConfig,
    _reduce_squared,
    fit_order,
    local_slopes,
    order_summary,
    run_study,
)
from spderk.nemytskii import BUILTIN_PROBLEMS, ProblemSpec, builtin_problem
from spderk.qwiener import QSpec, sample_path


def _zero(x, y):
    return np.zeros_like(y)


def _blowup(x, y):
    return y * 1e200


def _blowup_slope(x, y):
    return np.full_like(y, 1e200)


def _blowup_builder(N, K):
    q = QSpec(1, np.array([0.0]), "scalar_constant")
    return ProblemSpec(0.1, _blowup, _zero, np.full(N, 0.5), q,
                       f_y=_blowup_slope, f_yy=_zero, b_y=_zero, b_yy=_zero)


# ---------------------------------------------------------------- exact


def _exact_example1(t, beta_t, N):
    """Oracle: a_n(t) = n^-4 exp(-(n^2 pi^2 + 1/2) t + beta_t), n = 1..N."""
    n = np.arange(1, N + 1, dtype=float)
    return n**-4.0 * np.exp(-(n**2 * math.pi**2 + 0.5) * t + beta_t)


def test_exact_solution_frozen_values():
    a = builtin_problem("example1", 4).exact(0.0, 0.0)
    np.testing.assert_allclose(a, [1.0, 1.0 / 16.0, 1.0 / 81.0, 1.0 / 256.0],
                               rtol=1e-15)
    a1 = builtin_problem("example1", 1).exact(1.0, 0.0)[0]
    assert a1 == pytest.approx(math.exp(-(math.pi**2 + 0.5)), rel=1e-15)


def test_exact_solution_matches_builtin_closure():
    p = builtin_problem("example1", 12)
    for t, beta in [(0.0, 0.0), (0.5, -0.3), (1.0, 1.7)]:
        np.testing.assert_allclose(p.exact(t, beta), _exact_example1(t, beta, 12),
                                   rtol=1e-14)


def test_terminal_beta_is_cumulative_sum():
    q = QSpec(1, np.array([1.0]), "scalar_constant")
    path = sample_path(q, 64, 1.0 / 64.0, 5)
    total = float(path.dB.sum())
    running = float(np.cumsum(path.dB[:, 0])[-1])
    assert abs(total - running) <= 1e-14


# ------------------------------------------------------------ reduction


def test_rms_error_trivia():
    assert _reduce_squared([0.0] * 4, 4) == (0.0, 0.0, 0)
    # three unit squared errors
    assert _reduce_squared([1.0] * 3, 3) == (1.0, 0.0, 0)
    # NaN marks a flagged realization; a cell of flagged ones has no rms
    assert _reduce_squared([1.0, math.nan, 1.0], 3) == (1.0, 0.0, 1)
    rms, se, flagged = _reduce_squared([math.nan, math.nan], 2)
    assert math.isnan(rms) and math.isnan(se) and flagged == 2


def test_rms_error_moment_oracle():
    # errors sigma*z with z standard normal: analytic rms is sigma and the
    # delta-method SE is sigma/sqrt(2 R); check both within 3 SE
    rng = np.random.default_rng(123)
    sigma, R = 0.7, 10_000
    sq = [(sigma * z) ** 2 for z in rng.standard_normal(R)]
    rms, se, flagged = _reduce_squared(sq, R)
    assert abs(rms - sigma) <= 3.0 * se and flagged == 0
    assert se == pytest.approx(sigma / math.sqrt(2 * R), rel=0.1)


# ---------------------------------------------------------- order fits


def _power_law_table(C, gamma, scheme="x", M_values=(8, 16, 32, 64, 128)):
    rows = [
        ErrorRow(scheme, M, 1.0 / M, C * (1.0 / M) ** gamma, 0.0, 0)
        for M in M_values
    ]
    return ErrorTable(tuple(rows))


def test_fit_order_exact_power_laws():
    for gamma in (1.5, 0.5):
        slope, residual = fit_order(_power_law_table(3.0, gamma), "x")
        assert slope == pytest.approx(gamma, abs=1e-12)
        assert residual <= 1e-24


@settings(max_examples=40, deadline=None)
@given(
    gamma=st.floats(-0.25, 2.5),
    logC=st.floats(-10.0, 5.0),
)
def test_fit_order_recovers_exponent(gamma, logC):
    slope, _ = fit_order(_power_law_table(math.exp(logC), gamma), "x")
    assert slope == pytest.approx(gamma, abs=1e-9)


def test_fit_order_drops_nonpositive_rows():
    rows = _power_law_table(2.0, 1.0).rows
    rows = rows + (ErrorRow("x", 256, 1.0 / 256, 0.0, 0.0, 0),)
    with pytest.warns(UserWarning, match="nonpositive"):
        slope, _ = fit_order(ErrorTable(rows), "x")
    assert slope == pytest.approx(1.0, abs=1e-12)


def test_fit_order_needs_three_rows():
    t = ErrorTable(tuple(_power_law_table(1.0, 1.0).rows[:2]))
    with pytest.raises(ValueError, match="at least 3"):
        fit_order(t, "x")
    with pytest.raises(ValueError, match="no rows"):
        fit_order(t, "y")


def test_local_slopes_of_adjacent_rows():
    # a power law with a kink: slope 1 from M=4 to 16, slope 2 after;
    # the flagged (NaN) row is skipped and its neighbours are paired
    rows = (
        ErrorRow("x", 4, 0.25, 1.0, 0.0, 0),
        ErrorRow("x", 8, 0.125, 0.5, 0.0, 0),
        ErrorRow("x", 16, 0.0625, 0.25, 0.0, 0),
        ErrorRow("x", 32, 0.03125, float("nan"), float("nan"), 3),
        ErrorRow("x", 64, 0.015625, 0.25 / 16.0, 0.0, 0),
    )
    got = local_slopes(ErrorTable(rows), "x")
    assert [(a, b) for a, b, _ in got] == [(4, 8), (8, 16), (16, 64)]
    assert [round(s, 12) for _, _, s in got] == [1.0, 1.0, 2.0]
    assert local_slopes(ErrorTable(rows[:1]), "x") == []


def test_order_summary_skips_unfittable():
    rows = _power_law_table(1.0, 1.5).rows + (ErrorRow("y", 8, 0.125, 1.0, 0.0, 0),)
    summary = order_summary(ErrorTable(rows))
    assert [s for s, _, _ in summary] == ["x"]
    assert summary[0][1] == pytest.approx(1.5, abs=1e-12)


# ------------------------------------------------------------- table IO


def test_table_csv_round_trip():
    rows = (
        ErrorRow("erkm15", 8, 0.125, 0.1 + 0.2, 1e-300, 0),
        ErrorRow("ewp", 8, 0.125, 3.0, 0.5, 2),
    )
    table = ErrorTable(rows)
    buf = io.StringIO()
    table.write_csv(buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == CSV_HEADER
    again = ErrorTable.read_csv(io.StringIO(text))
    assert again == table
    assert again.schemes() == ["erkm15", "ewp"]
    assert len(again.rows_for("ewp")) == 1


_ERRORS = st.floats(min_value=0.0, allow_nan=False)


@st.composite
def _tables(draw):
    """An ErrorTable of valid rows: each scheme's h decreases as its M grows."""
    rows = []
    for scheme in draw(st.lists(st.text(min_size=1, max_size=8).filter(is_label),
                                min_size=1, max_size=3, unique=True)):
        Ms = draw(st.lists(st.integers(1, 2**62), min_size=1, max_size=4, unique=True))
        hs = draw(st.lists(st.floats(min_value=5e-324, max_value=sys.float_info.max),
                           min_size=len(Ms), max_size=len(Ms), unique=True))
        rows += [ErrorRow(scheme, M, h, draw(_ERRORS), draw(_ERRORS), draw(st.integers(0, 2**62)))
                 for M, h in zip(sorted(Ms), sorted(hs, reverse=True))]
    return ErrorTable(tuple(draw(st.permutations(rows))))


@settings(max_examples=100, deadline=None)
@given(table=_tables())
def test_table_csv_round_trip_property(table):
    # read_csv takes back every table write_csv writes, and the table it
    # reads writes the same text again
    buf = io.StringIO()
    table.write_csv(buf)
    again = ErrorTable.read_csv(io.StringIO(buf.getvalue()))
    assert again == table
    rewritten = io.StringIO()
    again.write_csv(rewritten)
    assert rewritten.getvalue() == buf.getvalue()


def test_table_validation():
    row = ErrorRow("a", 8, 0.125, 1.0, 0.0, 0)
    with pytest.raises(ValueError, match="uniquely"):
        ErrorTable((row, row))
    with pytest.raises(ValueError, match="nonnegative"):
        ErrorTable((ErrorRow("a", 8, 0.125, -1.0, 0.0, 0),))
    with pytest.raises(ValueError, match="header"):
        ErrorTable.read_csv(io.StringIO("foo\n"))
    with pytest.raises(ValueError, match="malformed"):
        ErrorTable.read_csv(io.StringIO(CSV_HEADER + "\na,1,2\n"))


# ------------------------------------------------------------- configs


def test_config_defaults():
    cfg = StudyConfig("example1", realizations=10).validated()
    assert cfg.reference == ReferenceSpec("exact", None)
    assert cfg.M_list == (8, 16, 32, 64, 128, 256, 512)
    assert (cfg.N, cfg.T, cfg.seed) == (64, 1.0, 0)
    assert cfg.schemes == ("lie", "exe", "dfmm", "ewp", "erkm15")
    cfg2 = StudyConfig("example2", realizations=10).validated()
    assert cfg2.reference == ReferenceSpec("ewp", 4096)


@pytest.mark.parametrize(
    "kw",
    [
        dict(problem="nope"),
        dict(M_list=(8, 12)),
        dict(M_list=(8, 8)),
        dict(M_list=()),
        dict(problem="example2", reference=ReferenceSpec("exact")),
        dict(reference=ReferenceSpec("ewp", 100), M_list=(16,)),
        dict(reference=ReferenceSpec("martingale")),
        dict(schemes=()),
        dict(schemes=("ewp", "ewp")),
        dict(schemes=("not-a-scheme",)),
        dict(realizations=0),
        dict(seed=-1),
        dict(problem="example1", K=4),
        dict(N=0),
        dict(problem="example2", K=-3),
        dict(reference={"mode": "exact", "M": 999}),
        # a label is one field of a CSV row: a non-empty string with no
        # comma, line break or outer whitespace
        dict(schemes=({"name": "exe", "label": 5},)),
        dict(schemes=({"name": "exe", "label": None},)),
        dict(schemes=({"name": "exe", "label": ""},)),
        dict(schemes=({"name": "exe", "label": "a,b"},)),
        dict(schemes=({"name": "exe", "label": "a\nb"},)),
        dict(schemes=({"name": "exe", "label": " exe"}, "lie")),
        # no scheme entry is coerced or guessed
        dict(schemes=({"name": "erkm-closed", "c": [1.0] * 7},)),
        dict(schemes=({"name": "erkm15", "c": ["0.5"] * 7},)),
        dict(schemes=({"name": "erkm15", "c": [True] * 7},)),
        dict(schemes=({"label": "x"},)),
        # finite, nonzero c whose tableau overflows or rounds an entry to 0
        dict(schemes=({"name": "erkm15", "c": [1, 1, 1e-160, 1, 1, 1, 1]},)),
        dict(schemes=({"name": "erkm15", "c": [1, 1, 1, 1, 1, 1e200, 1]},)),
        # example3's initial value sin(2 pi x) / 2 is the second mode
        dict(problem="example3", N=1),
    ],
)
def test_config_rejections(kw):
    base = dict(problem="example1", N=8, M_list=(4, 8), realizations=2,
                schemes=("exe",), reference=None, seed=0)
    base.update(kw)
    with pytest.raises(ConfigError):
        StudyConfig(**base).validated()


@pytest.mark.parametrize("N", [2, 64])
def test_exact_solutions_have_a_single_noise_mode(N):
    # an exact reference is fed the fine path's one Brownian value, and
    # StudyConfig.validated() takes it without checking K: every builtin
    # problem with an exact solution has one noise mode
    problems = [builtin_problem(name, N) for name in BUILTIN_PROBLEMS]
    exact = [p for p in problems if p.exact is not None]
    assert exact and all(p.qspec.K == 1 for p in exact)


@pytest.mark.parametrize(
    "kw",
    [
        dict(N="abc"),
        dict(N=3.7),
        dict(T="x"),
        dict(T=float("inf")),
        dict(K=2.0),
        dict(M_list=(4, 8.0)),
        dict(schemes="exe"),
        dict(reference={"mode": "ewp", "M": "big"}),
        dict(reference=ReferenceSpec("ewp", 16.5)),
        dict(problem=None),
        dict(reference={"mode": "ewp", "M": 16, "m": 8}),
        # each field's rule checks the range with the type
        dict(N=0),
        dict(K=0),
        dict(T=0),
        dict(realizations=0),
        dict(seed=-1),
        dict(M_list=()),
        dict(M_list=(8, 8)),
        dict(M_list=(8, 12)),
        dict(schemes=()),
        dict(schemes=("exe", "nope")),
        dict(schemes=("exe", "exe")),
        dict(problem="nope"),
        dict(reference={"mode": "x"}),
        dict(reference={"mode": "exact", "M": 8}),
        dict(out_dir=3),
        # what an array of realizations x schemes x M_list entries, or a
        # fine path of 2 x fine M x K, would take numpy cannot address
        dict(realizations=10**20),
        dict(M_list=(8, 10**20), reference={"mode": "exact"}),
        dict(reference={"mode": "ewp", "M": 10**20}),
    ],
)
def test_config_type_rejections(kw):
    base = dict(problem="example1", N=8, M_list=(4, 8), realizations=2,
                schemes=("exe",), reference=None, seed=0)
    base.update(kw)
    key = next(iter(kw))
    with pytest.raises(ConfigError, match="^%s " % key):
        StudyConfig(**base).validated()


@pytest.mark.parametrize("workers", [0, -2, 1.5, True])
def test_run_study_rejects_bad_worker_counts(workers):
    cfg = StudyConfig("example1", N=4, M_list=(4,), realizations=1, schemes=("exe",))
    with pytest.raises(ConfigError, match="^workers must be a positive integer"):
        run_study(cfg, workers=workers)


def test_run_study_workers_none_means_all_cores():
    cfg = StudyConfig("example1", N=4, M_list=(4,), realizations=1, schemes=("exe",))
    assert run_study(cfg, workers=None) == run_study(cfg, workers=1)


def test_config_reference_dict_coercion():
    cfg = StudyConfig("example2", N=8, M_list=(4,), realizations=1,
                      schemes=("exe",), reference={"mode": "ewp", "M": 8})
    assert cfg.validated().reference == ReferenceSpec("ewp", 8)


# ---------------------------------------------------------- run_study


def test_run_study_single_row():
    cfg = StudyConfig("example1", N=8, M_list=(4,), realizations=1,
                      schemes=("erkm15",), seed=1)
    table = run_study(cfg)
    assert len(table.rows) == 1
    row = table.rows[0]
    assert (row.scheme, row.M, row.h, row.flagged) == ("erkm15", 4, 0.25, 0)
    assert row.rms_error > 0


def test_run_study_non_dyadic_step_sizes():
    # T = 0.3 over M = 3, 9, 27 under an 81-step reference: a coarsened
    # path's h differs from T / M by an ulp, which must not matter
    cfg = StudyConfig("example2", N=8, T=0.3, M_list=(3, 9, 27), realizations=2,
                      reference=ReferenceSpec("ewp", 81))
    table = run_study(cfg)
    assert len(table.rows) == len(cfg.schemes) * 3
    assert all(r.flagged == 0 and r.rms_error > 0 for r in table.rows)


def test_run_study_deterministic_and_worker_independent():
    cfg = StudyConfig("example2", N=6, K=3, M_list=(4, 8), realizations=4,
                      schemes=("exe", "erkm15"), reference=ReferenceSpec("ewp", 16),
                      seed=7)
    t1 = run_study(cfg)
    t2 = run_study(cfg)
    assert t1 == t2
    t3 = run_study(cfg, workers=2)
    assert t3 == t1

    buf1, buf3 = io.StringIO(), io.StringIO()
    t1.write_csv(buf1)
    t3.write_csv(buf3)
    assert buf1.getvalue() == buf3.getvalue()


def test_run_study_reference_self_consistency():
    cfg = StudyConfig("example2", N=6, M_list=(16,), realizations=3,
                      schemes=("ewp",), reference=ReferenceSpec("ewp", 16), seed=3)
    table = run_study(cfg)
    assert table.rows[0].rms_error == 0.0
    assert table.rows[0].std_error == 0.0


def test_run_study_coupled_refinement_reduces_error():
    cfg = StudyConfig("example1", N=8, M_list=(8, 128), realizations=20,
                      schemes=("erkm15",), seed=11)
    table = run_study(cfg)
    coarse = table.rows_for("erkm15")[0]
    fine = table.rows_for("erkm15")[1]
    assert (coarse.M, fine.M) == (8, 128)
    assert fine.rms_error < coarse.rms_error


def test_run_study_flags_divergent_reference(monkeypatch):
    monkeypatch.setitem(BUILTIN_PROBLEMS, "blowup", _blowup_builder)
    cfg = StudyConfig("blowup", N=2, M_list=(4,), realizations=2,
                      schemes=("exe",), reference=ReferenceSpec("ewp", 8), seed=0)
    with pytest.raises(StudyError, match="flagged"):
        run_study(cfg)


@pytest.mark.parametrize("workers", [1, 2])
def test_study_error_names_first_divergences(monkeypatch, workers):
    # a scheme diverges in realization 1 and the reference in realization
    # 3: the StudyError keeps its per-cell counts and then names each
    # first divergence, in realization order, for any worker count
    real_sample, real_solve = experiments.sample_path, experiments.solve
    current = {}

    def sample(q, M, h, seed, r):
        current["r"] = r
        return real_sample(q, M, h, seed, r)

    def solve(ctx, scheme, path):
        if current["r"] == 1 and scheme == "exe" and path.M == 8:
            raise DivergenceError("exe", 5, 2)
        if current["r"] == 3 and path.M == 16:
            raise DivergenceError("ewp", 11, 0)
        return real_solve(ctx, scheme, path)

    monkeypatch.setattr(experiments, "sample_path", sample)
    monkeypatch.setattr(experiments, "solve", solve)
    cfg = StudyConfig("example2", N=4, K=2, M_list=(4, 8), realizations=4,
                      schemes=("lie", "exe"), reference=ReferenceSpec("ewp", 16), seed=3)
    with pytest.raises(StudyError) as exc:
        run_study(cfg, workers=workers)
    msg = str(exc.value)
    assert msg == ("flagged realizations exceed 1%: lie at M=4: 1 of 4; lie at M=8: 1 of 4;"
                   " exe at M=4: 1 of 4; exe at M=8: 2 of 4; first divergences:"
                   " realization 1: exe, M=8, step 5, mode 2;"
                   " realization 3: reference, M=16, step 11, mode 0")
    # the per-cell counts stay the only "<label> at M=<M>: <n> of <R>"
    # text (bench/child.py counts flagged realizations from it)
    assert re.findall(r" at M=\d+: (\d+) of \d+", msg) == ["1", "1", "1", "2"]


def test_realization_memory_is_bounded_by_the_fine_path():
    # one ex3-shaped realization (K = 64, fine ewp reference at M = 4096):
    # besides the study's own fine-path arrays (4.19 MB) it holds one
    # noise-field table of at most 64 steps per step count (0.32 MB in
    # all), coarsen's transposed copy of dB (half a fine path) and step
    # temporaries: 3.30 MB measured with numpy 2.4, against 7.1 MB with a
    # whole-path normal draw, whole-path noise tables and a trajectory
    cfg = StudyConfig("example3", N=64, M_list=(8, 16, 32, 64, 128, 256),
                      realizations=1, reference=ReferenceSpec("ewp", 4096), seed=0)
    fine_bytes = 2 * 4096 * 64 * 8
    tracemalloc.start()
    try:
        state = _StudyState(cfg.validated())
        sq, diverged = state.realization(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(sq)) and diverged == []
    assert peak <= fine_bytes + 4.5e6, peak
