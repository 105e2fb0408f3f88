"""tools/bench_pairs.py: the change side carries every edit of the working tree."""

import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    "-c", "commit.gpgsign=false", *args],
                   cwd=repo, check=True, capture_output=True)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_change_clone_carries_staged_unstaged_deleted_renamed_and_untracked(
        tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()
    git(repo, "init", "--quiet")
    for name in ("staged", "unstaged", "deleted", "moved", "kept"):
        (repo / name).write_text("old\n")
    (repo / ".gitignore").write_text("*.log\n")
    git(repo, "add", ".")
    git(repo, "commit", "--quiet", "-m", "base")

    (repo / "staged").write_text("new\n")
    git(repo, "add", "staged")
    (repo / "unstaged").write_text("new\n")
    git(repo, "rm", "--quiet", "deleted")
    git(repo, "mv", "moved", "renamed")
    (repo / "untracked").write_text("new\n")
    (repo / "ignored.log").write_text("new\n")

    tool = load_tool()
    monkeypatch.setattr(tool, "ROOT", repo)
    dest = tmp_path / "change"
    tool.clone_worktree(dest)

    files = {p.name: p.read_text() for p in dest.iterdir() if p.is_file()}
    assert files == {".gitignore": "*.log\n", "staged": "new\n", "unstaged": "new\n",
                     "renamed": "old\n", "kept": "old\n", "untracked": "new\n"}
