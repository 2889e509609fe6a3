"""Capture gate references: run every command of every workload, at the
full size, for each run base, and store the parsed outputs in
reference.json.  Run it only on a commit whose outputs are known good:

    python3 bench/capture.py
"""

from __future__ import annotations

import json

import gate
import run
from workloads import RUN_BASES, commands


def main() -> None:
    env = run.child_env()
    workdir = run.fresh_dir(run.WORK / "capture")
    reference = {gate.SHARED: {}}
    for base in RUN_BASES:
        reference[base] = {}
        for workload in run.WORKLOADS:
            for key, argv in commands(workload, base):
                takes_base = any(a.startswith("--base=") for a in argv)
                if not takes_base and key in reference[gate.SHARED]:
                    continue
                result = run.run_child(argv, workdir, key, env)
                if result["code"] != 0:
                    raise SystemExit(f"{key} on {base} exited {result['code']}")
                out = gate.parse_output((workdir / f"{key}.csv").read_text(),
                                        (workdir / f"{key}.out").read_text())
                reference[base if takes_base else gate.SHARED][key] = out
                print(f"{base:14s} {key:10s} {len(out['rows'])} rows")
    with open(gate.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
