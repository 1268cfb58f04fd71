"""Gate one benchmark run: exit 0 only if the record on its last line passed.

    python3 perfbench/run.py --workload merton_pde --seed 101 --seconds 10 --trace 0 \
        | python3 .github/check_run.py

The run passes when ``correct`` is true, no op ``failed``, at least two ops were
``attempted`` (so the repeatable gate compared a warm op with the cold first one),
and ``trace.errors`` is 0 wherever the record carries that metric (traced runs).
"""

import json
import sys

lines = sys.stdin.read().splitlines()
record = json.loads(lines[-1]) if lines else {}
trace_errors = record.get("metrics", {}).get("trace.errors", {}).get("value", 0)
passed = (record.get("correct") is True and record.get("failed") == 0
          and record.get("attempted", 0) >= 2 and trace_errors == 0)
sys.exit(0 if passed else f"the run failed a gate: {lines[-1] if lines else 'no output'}")
