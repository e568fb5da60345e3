"""Export a commit, or the tracked files of the working tree, into a temporary directory.

    with parent_checkout("3eaf060") as (commit, path):
        ...
    with tree_checkout() as path:
        ...

``tools/bench_record.py`` and ``tools/same_numbers.py`` compare the
checkout they run from against a parent commit exported this way.  Run
them from the root of the changed checkout.
"""

import contextlib
import os
import shutil
import subprocess
import tempfile


@contextlib.contextmanager
def parent_checkout(rev):
    """Yield ``(commit, path)``: the short hash of ``rev`` and a copy of its files.

    The files come from ``git archive``, so the copy holds what the commit
    holds and nothing of the working tree; the directory is removed on exit.
    """
    commit = subprocess.run(
        ["git", "rev-parse", "--short", rev + "^{commit}"],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], stdout=subprocess.PIPE, check=True)
    with tempfile.TemporaryDirectory() as path:
        subprocess.run(["tar", "-x", "-C", path], input=archive.stdout, check=True)
        yield commit, path


@contextlib.contextmanager
def tree_checkout():
    """Yield the path of a copy of the files that git tracks, as the working tree holds them.

    The copy starts as bare as one of :func:`parent_checkout`: no
    ``__pycache__``, build output or other untracked file comes along.
    Tracked files deleted from the working tree are left out; the directory
    is removed on exit.
    """
    listed = subprocess.run(["git", "ls-files", "-z"], stdout=subprocess.PIPE, check=True).stdout
    with tempfile.TemporaryDirectory() as path:
        for name in listed.decode().split("\0"):
            if name and os.path.isfile(name):
                os.makedirs(os.path.join(path, os.path.dirname(name)), exist_ok=True)
                shutil.copy2(name, os.path.join(path, name))
        yield path
