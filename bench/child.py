"""Run one ``dnsgd`` command line for the benchmark and record its spans.

Usage: python3 bench/child.py <dnsgd arguments...>

The command runs through ``dnsgd.cli.main``, exactly as the ``dnsgd``
entry point runs it. Environment:

    BENCH_SPANS  where to write the span file (see spans.Tracer.write)
    BENCH_TRACE  "1" wraps every public function of every dnsgd module;
                 otherwise only the set-up calls in spans.SETUP_FUNCTIONS
    BENCH_T0     time.perf_counter() reading the parent took just before
                 starting this process, stored with the spans
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import spans

import dnsgd.cli


def main() -> int:
    tracer = spans.Tracer()
    if os.environ.get("BENCH_TRACE") == "1":
        tracer.install()
    else:
        tracer.install(lambda name: name in spans.SETUP_FUNCTIONS)
    try:
        return dnsgd.cli.main(sys.argv[1:])
    finally:
        tracer.write(Path(os.environ["BENCH_SPANS"]), {"t0": float(os.environ["BENCH_T0"])})


if __name__ == "__main__":
    sys.exit(main())
