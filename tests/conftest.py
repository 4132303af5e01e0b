import os
from pathlib import Path

import hypothesis
import numpy as np
import pytest

import heislab

np.seterr(all="warn", under="ignore")

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, derandomize=True
)
# opt-in fresh examples on every run: pytest --hypothesis-profile=random
hypothesis.settings.register_profile("random", deadline=None, max_examples=500, derandomize=False)
hypothesis.settings.load_profile("default")


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports this heislab checkout."""
    src = str(Path(heislab.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
