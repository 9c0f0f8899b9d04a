"""Print the software facts of the benchmark's child environment as JSON.

Run with the same environment as the measured commands. Importing
``dnsgd.cli`` here also compiles the package's bytecode before timing.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform

import numpy as np

import dnsgd.cli  # noqa: F401


def openblas() -> tuple[str, int | None]:
    """Configuration string and live thread count of numpy's OpenBLAS, if found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return get_config().decode(), get_threads()
    return "unknown", None


if __name__ == "__main__":
    config, threads = openblas()
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": config,
        "blas_threads": threads,
    }))
