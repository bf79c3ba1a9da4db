"""Byte-identity gate: every CLI output matches its committed SHA-256 digest.

The reference files in tests/data/ are written by
`python tools/digest_outputs.py --write`; regenerating them is an output
change and needs a reason in CHANGES.md.  Digests can depend on numpy's
SIMD paths (exp, pairwise sums), and the readers set's csv and
number-parse messages come from Python, so a failure reports the Python
and numpy versions and the SIMD targets in use, to tell a new platform
from a regression.
"""

import importlib.util
import platform
from pathlib import Path

import numpy as np
import pytest

from test_config_io import NON_DEFAULT

TOOL = Path(__file__).resolve().parents[1] / "tools" / "digest_outputs.py"
# Lines in each committed reference set, so a truncated file cannot pass.
REFERENCE_LINES = {"default": 278, "non-default": 246, "readers": 2400}


def _load_tool():
    spec = importlib.util.spec_from_file_location("digest_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digest_tool = _load_tool()


def _platform() -> str:
    versions = f"Python {platform.python_version()}, numpy {np.__version__}"
    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__,
            __cpu_dispatch__,
            __cpu_features__,
        )
    except ImportError:
        return f"{versions}, SIMD targets unknown"
    active = [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]
    return (f"{versions}, SIMD baseline {' '.join(__cpu_baseline__)},"
            f" dispatch {' '.join(active)}")


def test_non_default_config_sets_every_key():
    assert digest_tool.NON_DEFAULT_CONFIG.read_text() == "".join(
        f"{key} = {text}\n" for key, (text, _) in NON_DEFAULT.items())


@pytest.mark.parametrize("name", list(digest_tool.REFERENCE_SETS))
def test_outputs_match_committed_digests(name):
    want = digest_tool.reference_path(name).read_text().splitlines()
    got = digest_tool.REFERENCE_SETS[name]()
    assert len(want) == REFERENCE_LINES[name]
    differ = sorted(set(want) ^ set(got))
    assert got == want, (
        f"{len(differ)} digest lines differ from {digest_tool.reference_path(name).name}"
        f" on {_platform()}:\n" + "\n".join(differ[:20]))
