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
def child_env():
    """The environment with okmlib's package root first on PYTHONPATH, so a child interpreter
    imports the okmlib under test, installed or not, from any working directory."""
    root = str(pathlib.Path(okmlib.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)
