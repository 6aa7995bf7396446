"""sgfcf benchmark: one workload in one fresh process, outputs checked.

    python3 perfbench/run.py --workload citeulike-shared --seed 1 --seconds 2 --trace 0

Run from a checkout of the repository; the library is imported from its
``src/``. The run writes its interaction file from the seed, then
(harness.py):

1. set-up: ``ingest`` + ``split`` of that file, timed again and again at
   points spread over the run (2 + 2 x RECOMMEND_PIECES + 1 samples, one
   more on grid-tune);
2. a cold ``fit`` of the workload's config and a test ``evaluate``; on
   grid-tune two more of them later in the run (fit_eval_runs);
3. on grid-tune, ``grid_search`` over the workload's 24 combos;
4. a closed loop of ``recommend(u, k=10)`` calls from one caller over
   RECOMMEND_USERS users, in two halves (after the fit, and after evaluate
   and the grid), at least one pass and at least --seconds in all; the
   traced run makes exactly one pass;
5. output checks (checks.py), untimed.

With --trace 0 the last stdout line carries the end-to-end metrics. With
--trace 1, steps 1-4 run with the library's public functions wrapped
(tracing.py) and the metrics are per-layer, including the traced
fit_eval_s (``trace.fit_eval_s``) and the time spent in the wrappers
(``trace.overhead_s``). A report and the spans go to perfbench/out/.
Exit codes: 0 all checks passed, 1 an operation or check failed, 2 bad
arguments or no library sources.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "sgfcf" / "__init__.py").is_file():
        print(f"error: no sgfcf sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
