import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_readme_library_snippet_runs():
    """README's "Library use" example runs as written and redeems a ticket."""
    readme = (REPO / "README.md").read_text()
    snippet = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run(
        [sys.executable, "-c", snippet], cwd=REPO, env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("Ack(receipt="), result.stdout
