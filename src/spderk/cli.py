"""Command-line front end.

Subcommands:

* ``study <config>``  -- run a Monte-Carlo convergence study, write the
  error table (CSV) and a metadata file, print fitted orders and the
  local slopes between adjacent step sizes;
* ``path <config>``   -- dump one realization's fine driving path (the one
  the study samples) as delimited text;
* ``order <table>``   -- refit convergence orders (and local slopes) from an
  existing table.

Configs are UTF-8 JSON objects whose keys are the fields of
experiments.StudyConfig; missing keys fall back to its desk-scale
defaults.  load_config returns a StudyConfig, which checks itself when
built.  Unknown keys, keys given twice in one object and every value the
StudyConfig rejects are reported with the file and the line of the key
to blame, or the file alone when it does not hold that key.
The config file is a study's only input besides its flags.  The error
table and the metadata file are written, and a table is read, as UTF-8.

Exit codes, the same for any --workers: 0 success, 1 usage/config error
or output pipe closed by the reader, 2 study failure, fitted orders
outside their bands under --assert-orders, or out of memory.  A worker
killed from outside (say by the OOM killer) is not handled.
"""

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .errors import ConfigError, SpderkError, StudyError
from .experiments import (
    FIELD_RULES,
    ErrorTable,
    StudyConfig,
    _StudyState,
    fit_order,
    local_slopes,
    order_summary,
    run_study,
    worker_count,
)
from .qwiener import dump_path
from .schemes import resolve_scheme

__all__ = ["load_config", "config_from_dict", "run_cli", "main"]

# acceptance bands for --assert-orders, keyed by problem and scheme name
ORDER_BANDS = {
    "example1": {
        "lie": (0.35, 0.65), "exe": (0.35, 0.65), "dfmm": (0.85, 1.15),
        "ewp": (1.3, 1.7), "erkm15": (1.3, 1.7),
    },
    "example2": {
        "lie": (0.35, 0.65), "exe": (0.35, 0.65), "dfmm": (0.8, 1.2),
        "ewp": (1.25, 1.75), "erkm15": (1.25, 1.75),
    },
    "example3": {"erkm15": (1.25, math.inf)},
}


# a JSON string, with the colon that makes it a key, or an object brace
_JSON_KEY_OR_BRACE = re.compile(r'("(?:[^"\\]|\\.)*")(\s*:)?|[{}]')


def _key_offsets(text):
    """Each object of a valid JSON text, in the order the objects close
    (the order json.loads builds them in), as (depth, {key: the offsets
    of its occurrences}); the top-level object has depth 1."""
    open_objects, closed = [], []
    for m in _JSON_KEY_OR_BRACE.finditer(text):
        if m.group() == "{":
            open_objects.append({})
        elif m.group() == "}":
            closed.append((len(open_objects), open_objects.pop()))
        elif m.group(2):
            open_objects[-1].setdefault(json.loads(m.group(1)), []).append(m.start())
    return closed


def _where(source, text, offset):
    """source, with the line of text that offset falls on."""
    return "%s: line %d" % (source, text.count("\n", 0, offset) + 1)


def config_from_dict(data, source="<config>", text=None):
    """Build a StudyConfig from a parsed JSON object.

    Unknown keys raise a ConfigError naming the key, and every ConfigError
    StudyConfig raises is prefixed with source; when the original text is
    supplied, both carry the line of the top-level key they blame (a
    string matching the key as a value, or as a key of a nested object,
    is passed over).  A null value takes the field's default.  No value
    is coerced (3.7 is not a count, "exe" is not a list of schemes).
    """
    def where(key):
        top = next((keys for depth, keys in _key_offsets(text or "") if depth == 1), {})
        return _where(source, text, top[key][0]) if key in top else source

    if not isinstance(data, dict):
        raise ConfigError("%s: top level must be an object" % source)
    for key in data:
        if key not in FIELD_RULES:
            raise ConfigError("%s: unknown key %r (allowed: %s)"
                              % (where(key), key, ", ".join(FIELD_RULES)))
    try:
        return StudyConfig(problem=data.get("problem"),
                           **{key: value for key, value in data.items()
                              if key != "problem" and value is not None})
    except ConfigError as e:
        raise ConfigError("%s: %s" % (where(e.key), e), e.key) from e


def load_config(path):
    """A StudyConfig from a JSON file; raises ConfigError for a file it
    cannot read or that is not UTF-8, malformed JSON, a key given twice
    in one object, or anything config_from_dict rejects.  A text that is
    both malformed and holds a key twice is reported as malformed."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        data = json.loads(text)
    except OSError as e:
        raise ConfigError(str(e)) from e
    except UnicodeDecodeError as e:
        raise ConfigError("%s: not UTF-8 text: %s" % (path, e)) from e
    except json.JSONDecodeError as e:
        raise ConfigError("%s: line %d column %d: %s"
                          % (path, e.lineno, e.colno, e.msg)) from e
    # the first object to close that holds a key twice, at its first repeat
    for _, keys in _key_offsets(text):
        repeats = [(offsets[1], key) for key, offsets in keys.items() if len(offsets) > 1]
        if repeats:
            offset, key = min(repeats)
            raise ConfigError("%s: duplicate key %r" % (_where(path, text, offset), key))
    return config_from_dict(data, source=path, text=text)


def check_order_bands(cfg, table):
    """Breach messages for every banded scheme whose fitted slope falls
    outside the acceptance window (or cannot be fitted)."""
    bands = ORDER_BANDS.get(cfg.problem, {})
    breaches = []
    for sel in cfg.schemes:
        scheme = resolve_scheme(sel)
        band = bands.get(scheme.name)
        if band is None:
            continue
        label = scheme.label
        try:
            slope, _ = fit_order(table, label)
        except ValueError as e:
            breaches.append("%s: cannot fit order (%s)" % (label, e))
            continue
        lo, hi = band
        if not lo <= slope <= hi:
            breaches.append("%s: fitted order %.3f outside [%.2f, %.2f]"
                            % (label, slope, lo, hi))
    return breaches


def _print_orders(summary, table, out):
    """Each scheme's fitted order, and below it the local slope between
    every adjacent pair of step sizes."""
    for scheme, slope, residual in summary:
        print("%s: fitted order %.3f (residual %.2e)" % (scheme, slope, residual),
              file=out)
        print("  local slopes: %s" % ", ".join(
            "M=%d-%d %.3f" % pair for pair in local_slopes(table, scheme)), file=out)


def _cmd_study(args, out, err):
    cfg = load_config(args.config)
    # a bad worker count or output directory fails before the study runs
    workers = worker_count(args.workers)
    out_dir = cfg.out_dir or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise ConfigError("cannot create output directory %r: %s"
                          % (out_dir, e.strerror)) from e
    table = run_study(cfg, workers=workers)

    table_path = os.path.join(out_dir, "%s_errors.csv" % cfg.problem)
    meta_path = os.path.join(out_dir, "%s_meta.json" % cfg.problem)
    meta = {
        # one key per StudyConfig field, which config_from_dict reads back
        "config": asdict(cfg),
        "seed": cfg.seed,
        "versions": {
            "spderk": __version__,
            "numpy": np.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
    }
    try:
        with open(table_path, "w", encoding="utf-8") as fh:
            table.write_csv(fh)
        with open(meta_path, "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as e:
        raise ConfigError("cannot write %r: %s" % (e.filename, e.strerror)) from e

    print("wrote %s" % table_path, file=out)
    print("wrote %s" % meta_path, file=out)
    _print_orders(order_summary(table), table, out)
    if args.assert_orders:
        breaches = check_order_bands(cfg, table)
        if breaches:
            for b in breaches:
                print("order assertion FAILED: %s" % b, file=err)
            return 2
        print("order assertions passed", file=out)
    return 0


def _cmd_path(args, out, err):
    if args.realization < 0:
        raise ConfigError("--realization must be >= 0, got %d" % args.realization)
    cfg = load_config(args.config)
    dump_path(_StudyState(cfg).fine_path(args.realization), out)
    return 0


def _cmd_order(args, out, err):
    try:
        with open(args.table, encoding="utf-8") as fh:
            table = ErrorTable.read_csv(fh)
    except OSError as e:
        raise ConfigError(str(e)) from e
    except ValueError as e:
        raise ConfigError("%s: %s" % (args.table, e)) from e
    summary = order_summary(table)
    if not summary:
        print("no scheme has enough rows to fit an order", file=err)
        return 1
    _print_orders(summary, table, out)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="spderk",
        description="Spectral-Galerkin convergence studies for semilinear "
                    "SPDEs with multiplicative noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_study = sub.add_parser("study", help="run a convergence study")
    p_study.add_argument("config", help="JSON config file")
    p_study.add_argument("--workers", type=int, default=None,
                         help="worker processes, at least 1 (default: cores this process may use)")
    p_study.add_argument("--assert-orders", action="store_true",
                         help="fail (exit 2) if fitted orders leave the "
                              "acceptance bands")

    p_path = sub.add_parser("path", help="dump one sampled driving path")
    p_path.add_argument("config", help="JSON config file")
    p_path.add_argument("--realization", type=int, default=0)

    p_order = sub.add_parser("order", help="refit orders from a table file")
    p_order.add_argument("table", help="CSV error table")

    return parser


_COMMANDS = {
    "study": _cmd_study,
    "path": _cmd_path,
    "order": _cmd_order,
}


def run_cli(argv=None, out=None, err=None):
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse uses status 2 for usage errors; remap per contract
        return 0 if e.code == 0 else 1
    try:
        return _COMMANDS[args.command](args, out, err)
    except ConfigError as e:
        print("config error: %s" % e, file=err)
        return 1
    except StudyError as e:
        print("study failed: %s" % e, file=err)
        return 2
    except SpderkError as e:
        print("error: %s" % e, file=err)
        return 2
    except MemoryError as e:
        print("error: out of memory: %s" % e, file=err)
        return 2


def main(argv=None):
    try:
        status = run_cli(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (spderk path ... | head): point stdout
        # at devnull so the interpreter's flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)


if __name__ == "__main__":
    main()
