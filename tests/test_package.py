"""The package's import surface: each module is its own import path."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
MODULES = ["analytic", "cli", "fitting", "graphs", "hierarchy", "routing", "svgplot"]


def fresh_import(statement):
    """The routestretch modules loaded and the package's non-dunder names
    after running `statement` in a new interpreter."""
    probe = (
        f"{statement}\n"
        "import json, sys\n"
        "root = sys.modules['routestretch']\n"
        "print(json.dumps({\n"
        "    'loaded': sorted(m for m in sys.modules if m.startswith('routestretch.')),\n"
        "    'names': sorted(k for k in vars(root) if not k.startswith('__')),\n"
        "    'version': getattr(root, '__version__', None),\n"
        "}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        check=True,
    )
    return json.loads(done.stdout)


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    got = fresh_import(f"import routestretch.{module}")
    assert f"routestretch.{module}" in got["loaded"]


def test_graphs_loads_no_other_module():
    got = fresh_import("import routestretch.graphs")
    assert got["loaded"] == ["routestretch.graphs"]


def test_package_root_holds_only_dunders():
    # every name has one import path, its module
    got = fresh_import("import routestretch")
    assert got["loaded"] == []
    assert got["names"] == []
    assert got["version"] == "0.1.0"


def test_importing_cli_builds_no_parser():
    # main builds the parser on its first call, so a process that imports
    # cli early (perfbench's pass worker, before its clock starts) still
    # pays for the parser inside the first call
    got = fresh_import(
        "import argparse, contextlib, io\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import routestretch.cli\n"
        "assert built == [], built\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert routestretch.cli.main(['validate']) == 0\n"
        "assert built.count('routestretch') == 1, built"
    )
    assert "routestretch.cli" in got["loaded"]


def test_importing_cli_loads_no_network_modules():
    # xml.sax.saxutils would load urllib.request, http.client, ssl and
    # email into every CLI process.  A site hook may load some of them
    # before any import, so only what the import adds counts
    got = fresh_import(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import routestretch.cli\n"
        "added = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "assert not added & {'urllib', 'http', 'ssl', 'email'}, sorted(added)"
    )
    assert "routestretch.cli" in got["loaded"]
