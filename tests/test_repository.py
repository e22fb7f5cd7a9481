"""Checks on the repository itself rather than on the library."""

import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_no_tracked_file_is_ignored():
    """Generated artifacts are listed in .gitignore, so none may be tracked."""
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    res = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"],
                         cwd=ROOT, capture_output=True, text=True)
    if res.returncode != 0:
        pytest.skip("not a git work tree")
    assert res.stdout == ""
