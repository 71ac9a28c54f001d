"""The README's python code runs as written against the package in src/,
so documentation that names a removed function fails here."""

import os
import re
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_readme_python_blocks_run():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), flags=re.S | re.M)
    assert blocks, "README.md has no python block"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", "\n".join(blocks)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_names_the_current_generator():
    # a change of stream renames the generator; the README must follow it
    from pcomb import simulate
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        assert f'`"{simulate.GENERATOR_NAME}"`' in fh.read()
