"""README's examples run: its python blocks, its CLI lines, and every module.name it cites exists."""

import pkgutil
import re
import shlex
from pathlib import Path

import pinchplace
from pinchplace import cli

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", TEXT, flags=re.MULTILINE | re.DOTALL)
    assert blocks
    namespace: dict = {}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)


def test_readme_cli_lines_exit_0_and_certify(tmp_path, monkeypatch, capsys):
    lines = re.findall(r"^pinchplace (.+)$", TEXT, flags=re.MULTILINE)
    assert len(lines) == 6
    (tmp_path / "users.txt").write_text("-12.5 3.25\n4.0 -1.5\n9.75 2.0\n-3.0 -4.5\n")
    (tmp_path / "pair.txt").write_text("-8.0 1.0\n6.5 -3.5\n")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line)) == 0, line
        certified = [out for out in capsys.readouterr().out.splitlines() if out.startswith("certify")]
        assert ("--certify" in line) == bool(certified), line
        assert all(out.endswith("-> PASS") for out in certified), (line, certified)
    assert (tmp_path / "sweep.csv").read_text().startswith("sweep_value,scheme,metric,mean,stderr,trials\n")


def test_every_module_name_readme_cites_exists():
    modules = {info.name for info in pkgutil.iter_modules(pinchplace.__path__)}
    cited = {(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)`", TEXT)
             if module in modules and name != "py"}  # certify.py names a file
    assert ("core", "per_row") in cited and ("cli", "_SUBCOMMANDS") in cited
    missing = [f"{module}.{name}" for module, name in sorted(cited)
               if not hasattr(__import__(f"pinchplace.{module}", fromlist=[name]), name)]
    assert not missing
