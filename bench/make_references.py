"""Write references.json: the objective of every corpus input at this commit.

    python3 bench/make_references.py --commit <id of the checked-out commit>

objective_ratio divides each job's objective by the stored value for its
input, so run this only at the commit that defines the baseline.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402

# Input seeds of each workload's corpus.
CORPUS = {
    "tall-fit": [1001, 1002, 1003],
    "wide-sweep": [2001, 2002, 2003],
    "sis-fit": [3001, 3002, 3003],
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", required=True)
    args = parser.parse_args(argv)
    cli = run.import_program()
    work = Path(tempfile.mkdtemp(dir=run.HERE))
    out = {
        "produced_by": f"python3 bench/make_references.py --commit {args.commit}",
        "commit": args.commit,
        "environment": run.environment(),
        "workloads": {},
    }
    try:
        for name, seeds in CORPUS.items():
            workload = jobs.WORKLOADS[name]
            entries = []
            for seed in seeds:
                x = workload.make_input(seed)
                csv = work / "input.csv"
                gen.write_csv(csv, x)
                _, codes = jobs.run_job(cli.main, workload, csv, work / "r.json", work / "s.json")
                doc, failures = jobs.check_job(workload, codes, work / "r.json", work / "s.json",
                                               x.shape[0])
                if failures:
                    raise SystemExit(f"{name} input {seed}: {failures}")
                entries.append({"input_seed": seed, "objective": jobs.objective_of(doc)})
                print(name, entries[-1], flush=True)
            out["workloads"][name] = entries
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(jobs.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
