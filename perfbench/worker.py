"""Reference worker: runs ``hlas`` jobs on the frozen copy of ``hlaskit``
kept in ``perfbench/reference/hlaskit``.

Usage: ``python3 perfbench/worker.py <repo root>``.  It reads one JSON list
of argv lists per line from standard input, runs them back to back
in-process, and answers each with one JSON line
``{"elapsed": <s>, "results": [[<exit code>, <stdout>], ...]}``.  It exits
when its standard input closes.
"""

import gc
import json
import sys
import time
from pathlib import Path


def main() -> None:
    root = Path(sys.argv[1])
    reference = root / "perfbench" / "reference"
    sys.path[:0] = [str(reference), str(root)]
    import hlaskit.cli

    if Path(hlaskit.__file__).resolve().parent != reference / "hlaskit":
        sys.exit(f"worker: imported hlaskit from {hlaskit.__file__}, "
                 f"not from {reference}")
    from perfbench.cli_call import call

    for line in sys.stdin:
        steps = json.loads(line)
        gc.collect()
        start = time.perf_counter()
        results = [call(hlaskit.cli.main, argv) for argv in steps]
        elapsed = time.perf_counter() - start
        print(json.dumps({"elapsed": elapsed, "results": results}),
              flush=True)


if __name__ == "__main__":
    main()
