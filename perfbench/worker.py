"""One fresh interpreter of the benchmark: set up snewt, then maybe measure.

Reads a JSON job on stdin and prints one JSON object as the last line of
stdout.  run.py starts it with BLAS pinned to one thread, SNEWT_THREADS
unset and src/ on PYTHONPATH; nothing but the standard library is imported
before snewt, so the import is timed cold.
"""

import json
import sys
import time


def main() -> int:
    job = json.loads(sys.stdin.read())
    t0 = time.perf_counter()
    import snewt  # noqa: F401  (the timed cold import)
    import_s = time.perf_counter() - t0
    import studies

    print(json.dumps(studies.run_job(job, import_s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
