import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_example_runs():
    # The README's Python API block is a caller of the public API: run it.
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert len(namespace["boundary"]) >= 3
