"""The README's python blocks run, in order, in one namespace.

Run as a script, this file runs them against whichever truestages the
interpreter imports, such as an installed copy:

    python tests/test_readme.py
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.M | re.S)


def run_blocks(path: Path = README) -> int:
    """Run every python block of the file in order; returns their count."""
    namespace: dict = {"__name__": "readme"}
    blocks = _BLOCK.findall(path.read_text(encoding="utf-8"))
    for n, block in enumerate(blocks, start=1):
        exec(compile(block, f"{path.name}, python block {n}", "exec"), namespace)
    return len(blocks)


def test_readme_python_blocks_run_in_order():
    assert run_blocks() > 0


if __name__ == "__main__":
    import truestages

    count = run_blocks()
    print(f"ran {count} README python blocks against {Path(truestages.__file__).parent}")
