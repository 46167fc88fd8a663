import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_as_doctests():
    # only the text inside each ```python fence is parsed, so the closing
    # fence is not read as expected output
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert blocks
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    for number, block in enumerate(blocks):
        name = f"README.md block {number}"
        runner.run(parser.get_doctest(block, {}, name, str(README), 0))
    results = runner.summarize(verbose=False)
    assert results.attempted > 0
    assert results.failed == 0
