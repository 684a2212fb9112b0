"""Run one tsgof command in a fresh interpreter, as the console script
would, and record when set-up ended.

Usage: launch.py TIMING_JSON CONFIG|- TSGOF_ARGS...

Set-up is the import of tsgof.cli plus, for experiment commands, loading
the config. TIMING_JSON receives the monotonic clock readings at the end of
the import and at the return of the command (before interpreter
teardown), the config load time, and the peak resident set of this
process plus that of its largest worker. The command's exit code is
passed through.
"""

import json
import resource
import sys
import time


def main() -> int:
    timing_path, config = sys.argv[1], sys.argv[2]
    import tsgof.cli

    imported = time.perf_counter()
    config_s = 0.0
    if config != "-":
        start = time.perf_counter()
        tsgof.cli.load_config(config)
        config_s = time.perf_counter() - start
    code = tsgof.cli.main(sys.argv[3:])
    sys.stdout.flush()
    finished = time.perf_counter()
    rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(
            {"imported": imported, "finished": finished, "config_s": config_s, "rss_kb": rss_kb},
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
