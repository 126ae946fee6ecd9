"""Record the golden outputs of every workload for the given seeds.

    python3 perfbench/record_goldens.py --seeds 0 1

Run this at the commit whose outputs are the reference; it merges the new
seeds into ``perfbench/goldens.json``. Each workload is set up once per seed
and one repetition's outputs are stored, after its invariants pass.
"""

import argparse
import json
import shutil
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/record_goldens.py")
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    run.import_program()
    from workloads import WORKLOADS, Failure

    goldens = (json.loads(run.GOLDENS.read_text(encoding="utf-8"))
               if run.GOLDENS.exists() else {})
    for workload in WORKLOADS.values():
        for seed in args.seeds:
            workdir = run.WORK / f"record-{workload.name}-{seed}"
            try:
                state = workload.setup(seed, workdir)
                outputs = [kv for _, fn in workload.chunks(state)
                           for kv in fn()]
                failures = [f"{k}: {v}" for k, v in outputs
                            if isinstance(v, Failure)]
                failures += workload.invariants(state) if not failures else []
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if failures:
                sys.exit(f"{workload.name} seed {seed}: {failures}")
            goldens.setdefault(workload.name, {})[str(seed)] = dict(outputs)
            print(f"{workload.name} seed {seed}: {len(outputs)} outputs")
    run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n",
                           encoding="utf-8")


if __name__ == "__main__":
    main()
