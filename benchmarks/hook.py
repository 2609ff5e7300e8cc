"""Stub self-training hook for the ``selftrain`` workload.

Copies the pre-baked fixture ``<fixtures>/iter<ITER>/<basename(IN)>.<suffix>``
to ``OUT`` and appends one JSON line ``{"iter", "suffix", "in", "wall_s"}`` to
the log, where ``wall_s`` is the hook's own time from entering ``main`` to the
end of the copy (interpreter start-up is not included).

``--fail-flag PATH`` arms a planned crash: while PATH exists and holds
``<ITER> <suffix>`` matching this call, the hook exits 3 without writing.
Only standard-library imports, so start-up stays small next to the CLI's.
"""

import argparse
import json
import shutil
import sys
import time
from pathlib import Path


def main() -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--fixtures", required=True)
    parser.add_argument("--log", required=True)
    parser.add_argument("--suffix", required=True)
    parser.add_argument("--iter", required=True)
    parser.add_argument("--in", dest="inp", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--fail-flag", default=None)
    args = parser.parse_args()
    flag = Path(args.fail_flag) if args.fail_flag else None
    if flag is not None and flag.is_file():
        if flag.read_text(encoding="utf-8").split() == [args.iter, args.suffix]:
            print(f"simulated hook crash at iteration {args.iter} ({args.suffix})", file=sys.stderr)
            return 3
    src = Path(args.fixtures) / f"iter{args.iter}" / f"{Path(args.inp).name}.{args.suffix}"
    if not src.is_file():
        print(f"no fixture {src}", file=sys.stderr)
        return 4
    shutil.copyfile(src, args.out)
    record = {
        "iter": int(args.iter),
        "suffix": args.suffix,
        "in": Path(args.inp).name,
        "wall_s": time.perf_counter() - start,
    }
    with open(args.log, "a", encoding="utf-8") as f:
        f.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
