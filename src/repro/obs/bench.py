"""The commit a benchmark result was measured at.

``benchmarks/harness`` stamps every result set with :func:`git_sha`, so
a number can always be traced to the code that produced it.
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path

__all__ = ["git_sha"]


def git_sha(cwd: str | os.PathLike | None = None) -> str | None:
    """The current commit sha, or None outside a usable git checkout.

    Honors ``GITHUB_SHA``/``GIT_SHA`` first so CI records the exact
    commit even from shallow or detached checkouts.
    """
    for env in ("GITHUB_SHA", "GIT_SHA"):
        value = os.environ.get(env)
        if value:
            return value
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else str(Path(__file__).parent),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None
