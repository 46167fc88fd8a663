import doctest
import re
import shlex
from pathlib import Path

from octachain import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    # only the text inside each fence is returned, so the closing fence is
    # not read as doctest output or as a command
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.M | re.S)


def test_readme_python_blocks_run_as_doctests():
    blocks = _blocks("python")
    assert blocks
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    for number, block in enumerate(blocks):
        name = f"README.md block {number}"
        runner.run(parser.get_doctest(block, {}, name, str(README), 0))
    results = runner.summarize(verbose=False)
    assert results.attempted > 0
    assert results.failed == 0


def test_readme_command_lines_exit_0(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)  # `verify --json-out` writes its report here
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("octachain ")
    ]
    assert commands
    for argv in commands:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()
