"""The version is written once, as ``exactnmf.__version__``:
pyproject.toml declares it dynamic and setuptools reads it from there."""

import warnings
from pathlib import Path

import pytest

import exactnmf

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_reads_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # setuptools calls [tool.setuptools] beta
        project = pyprojecttoml.read_configuration(PYPROJECT)["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == exactnmf.__version__
