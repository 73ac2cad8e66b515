"""The OpenBLAS kernel that numpy's matrix products run on.

The golden digests (``test_golden.py``) and the pinned effective dimensions
(``test_capacity.py``) were recorded under OpenBLAS's SkylakeX (AVX-512)
kernel.  Another kernel, such as the AVX2 one that
``OPENBLAS_CORETYPE=Haswell`` selects, rounds the same products
differently, so those checks then fail by rounding alone; their failure
messages name both kernels.
"""

import ctypes
from pathlib import Path

import numpy as np

RECORDED_KERNEL = "SkylakeX"


def kernel_note() -> str:
    """The kernel the pins were recorded under and the one in use, for a failure message.

    The one in use is the core name that numpy's bundled scipy-openblas64
    reports.
    """
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    if libs:
        # The library numpy loaded: opening its file again returns the same handle.
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        kernel = corename().decode()
    else:
        kernel = "an unknown kernel (numpy bundles no scipy-openblas64)"
    return (f"the pins were recorded under the OpenBLAS {RECORDED_KERNEL} kernel;"
            f" this process runs {kernel}")
