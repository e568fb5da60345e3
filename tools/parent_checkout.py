"""Export a commit of this repository into a temporary directory.

    with parent_checkout("3eaf060") as (commit, path):
        ...

``tools/bench_record.py`` and ``tools/same_numbers.py`` compare the
checkout they run from against a parent commit exported this way.  Run
them from the root of the changed checkout.
"""

import contextlib
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
