"""Record the golden error tables the benchmark checks against.

    python3 bench/record_golden.py

Runs each workload's study once at its default seed and writes the
tables to bench/golden/ in the CSV format of `spderk study`.  Run it only on the commit whose
results define "the same results"; every later run is compared with it.
"""

import json
import shutil

from run import ROOT, StudyProcess, golden_path
from workloads import WORKLOADS


def main():
    for wl in WORKLOADS.values():
        out_dir = ROOT / ".bench_out" / wl.name
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        cfg_path = out_dir / "config.json"
        cfg_path.write_text(json.dumps(wl.config(wl.default_seed, wl.R, str(out_dir))))
        study = StudyProcess(wl, cfg_path, out_dir)
        try:
            rows = study.ask("plain")["rows"]
            study.ask("quit")
        finally:
            study.close()
        path = golden_path(wl)
        path.parent.mkdir(exist_ok=True)
        with open(path, "w") as fh:
            fh.write("scheme,M,h,rms_error,std_error,flagged\n")
            for scheme, M, rms, se, flagged in rows:
                fh.write("%s,%d,%r,%r,%r,%d\n" % (scheme, M, 1.0 / M, rms, se, flagged))
        print("wrote %s" % path.relative_to(ROOT))


if __name__ == "__main__":
    main()
