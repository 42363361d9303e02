#!/bin/bash
# The commands of both CI jobs' Demos steps.  The demos (noise sampling, a
# small study) and the CLI commands below are the only callers of the
# public API outside the tests, so a warning they raise fails the step, as
# pytest fails a test that warns; the invariant checks are tests.  The
# checked-in A1 long-M and ERKM1.5 family error tables, and the benchmark's
# golden tables (bench/record_golden.py writes them with its own format
# string), must stay readable by the CLI, and output cut short by its
# reader must leave stderr empty.
#
# Run from the repository root: bash .github/demos.sh.  -e stops at the
# first failing command, as a workflow's bash step does; there is no
# pipefail, since "spderk path | head -1" ends its writer with a closed
# pipe by design.
set -e
for demo in demos/*.py; do PYTHONPATH=src python -W error "$demo" || exit 1; done
PYTHONPATH=src python -W error -m spderk.cli order demos/a1_long_m/example1_errors.csv
PYTHONPATH=src python -W error -m spderk.cli order demos/erkm15_family/example3_errors.csv
for table in bench/golden/*.csv; do PYTHONPATH=src python -W error -m spderk.cli order "$table" || exit 1; done
PYTHONPATH=src python -W error -m spderk.cli path demos/a1_long_m/config.json 2>pipe.err | head -1 && test ! -s pipe.err
