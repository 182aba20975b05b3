"""Set-up probe: times ``import hlaskit`` plus one warm-up job in a fresh
process and prints ``{"setup_s": ..., "codes": [...]}``.

Usage: ``python3 perfbench/probe.py <repo root> '<json list of argv lists>'``.
Nothing but the standard library is imported before the clock starts.
"""

import json
import sys
import time


def main() -> None:
    root, steps = sys.argv[1], json.loads(sys.argv[2])
    sys.path[:0] = [f"{root}/src", root]
    from perfbench.cli_call import call

    start = time.perf_counter()
    import hlaskit.cli

    codes = [call(hlaskit.cli.main, argv)[0] for argv in steps]
    setup_s = time.perf_counter() - start
    print(json.dumps({"setup_s": setup_s, "codes": codes}))


if __name__ == "__main__":
    main()
