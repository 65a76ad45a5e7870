import ctypes
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run (no example database,
# no per-example deadline), so the suite stays deterministic on a loaded box.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def openblas():
    """A reader of numpy's bundled OpenBLAS thread count.

    Skips the test when that library cannot be reached.
    """
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    paths = sorted(libs.glob("libscipy_openblas64_*.so"))
    if not paths:
        pytest.skip("numpy's bundled OpenBLAS is not reachable")
    get = ctypes.CDLL(str(paths[0])).scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    return get
