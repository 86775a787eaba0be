"""Record the reference scalars of every workload variant into reference.json.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Each variant is run once through worker.py without the reference
comparison; a variant whose own certificate fails is not recorded and the
script exits nonzero.  Two variants run at a time, one per core.  Rerun only
when a change is meant to alter results.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from run import HERE, OUT, ROOT, _worker_env
from workloads import REFERENCE_PATH, VARIANTS, WORKLOADS


def record_one(workload: str, variant: int) -> tuple[str, int, dict]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(variant), "--mode", "run", "--no-reference",
           "--out", str(OUT / f"record-{workload}-{variant}")]
    proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        return workload, variant, {"errors": [proc.stderr[-2000:]]}
    return workload, variant, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=sorted(WORKLOADS))
    args = ap.parse_args()
    ref = json.loads(REFERENCE_PATH.read_text(encoding="utf-8")) if REFERENCE_PATH.exists() else {}
    jobs = [(w, k) for w in args.workloads for k in range(VARIANTS)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(lambda job: record_one(*job), jobs))
    bad = 0
    for workload, variant, res in results:
        if res.get("errors"):
            print(f"{workload} variant {variant}: {res['errors']}", file=sys.stderr)
            bad += 1
            continue
        ref.setdefault(workload, {})[str(variant)] = res["scalars"]
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
