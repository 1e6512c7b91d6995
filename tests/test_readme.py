"""README's "Library" example runs against the package as documented."""

import ast
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_library_example_prints_a_perfect_ari():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        (code,) = re.findall(r"^## Library\n\n```python\n(.*?)^```", fh.read(), re.M | re.S)
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert ast.literal_eval(out.stdout)["ari"] == 1.0
