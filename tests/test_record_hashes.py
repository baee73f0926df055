"""The byte-identity contract of ``scripts/record_hashes.py``, at one and at two BLAS threads.

A seed-0 record must hash to its ``REFERENCE`` value whatever the BLAS
thread count, so runs in worker processes with one thread each give the
records of a serial run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "record_hashes.py"
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.acceptance
@pytest.mark.parametrize("threads", [1, 2])
def test_adding_base_record_hash_at_blas_threads(threads):
    env = {**os.environ, **{name: str(threads) for name in BLAS_THREAD_VARIABLES}}
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "adding-base"], env=env, capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stdout + result.stderr
    name, _, status = result.stdout.split()
    assert (name, status) == ("adding-base", "ok")


def test_transformer_record_hashes():
    """The transformer toy task, with and without its quantized blocks, keeps its seed-0 records."""
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "transformer-base", "transformer-vq"], capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert [(line.split()[0], line.split()[2]) for line in result.stdout.splitlines()] == [
        ("transformer-base", "ok"),
        ("transformer-vq", "ok"),
    ]
