"""Where the checkout is, and how a child interpreter finds pcomb in it.

Nothing is installed: a child interpreter imports pcomb from ``src/``
because ``child_env`` puts that directory first on ``PYTHONPATH``.
"""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def child_env() -> dict:
    """Environment of a child interpreter that imports pcomb from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env
