import importlib.util
import os
import pathlib

import pytest

import okmlib
from okmlib import load_csv

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
IRIS_PATH = REPO_ROOT / "data" / "iris.csv"


@pytest.fixture(scope="session")
def iris():
    return load_csv(IRIS_PATH, label_column="last")


@pytest.fixture(scope="session")
def spectra_recorder():
    """`tests/data/make_golden_spectra.py`: its `block_layouts()` and `ones_blocks(sizes)` build criterion 2's matrices."""
    path = REPO_ROOT / "tests" / "data" / "make_golden_spectra.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def ones_blocks(spectra_recorder):
    return spectra_recorder.ones_blocks


@pytest.fixture(scope="session")
def child_env():
    """The environment with okmlib's package root first on PYTHONPATH, so a child interpreter
    imports the okmlib under test, installed or not, from any working directory."""
    root = str(pathlib.Path(okmlib.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)
