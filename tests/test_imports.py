"""Which modules each entry point loads, each case in a fresh interpreter.

``import unicolor`` loads ``budget``, ``graphs`` and ``colouring``; census and
constructions load the first time they are used, and each CLI command loads
only the modules it runs.  Only census and constructions use ``dataclasses``,
which loads ``inspect``, so ``check`` loads neither.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unicolor

DATACLASSES = ("dataclasses", "inspect")
LAZY = ("unicolor.census", "unicolor.constructions", *DATACLASSES)


def _run(code: str) -> str:
    src = str(Path(unicolor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(code: str) -> set[str]:
    """The modules of LAZY that are in ``sys.modules`` after ``code``."""
    out = _run(code + f"\nimport sys\nprint(json.dumps([m for m in {LAZY!r} if m in sys.modules]))")
    return set(json.loads(out.splitlines()[-1]))


class TestModulesLoaded:
    @pytest.mark.parametrize("code, loaded", [
        ("import unicolor, unicolor.cli", set()),
        ("main(['check', 'Bw', '--k', '3'])", set()),
        ("main(['nu', '--catalog', 'K3'])", {"unicolor.constructions", *DATACLASSES}),
        ("main(['census', '--n', '5', '--k', '3'])", {"unicolor.census", *DATACLASSES}),
        ("from unicolor import CensusTask", {"unicolor.census", *DATACLASSES}),
        ("unicolor.constructions", {"unicolor.constructions", *DATACLASSES}),
    ], ids=["import", "check", "nu-catalog", "census", "from-import", "submodule"])
    def test_only_what_runs(self, code, loaded):
        prelude = "import json\nimport unicolor\nfrom unicolor.cli import main\n"
        assert _loaded_after(prelude + code) == loaded


class TestPublicNames:
    def test_every_name_is_its_defining_modules_object(self):
        out = _run(
            "import json, sys, unicolor\n"
            "print(json.dumps({name: [obj.__module__, getattr(sys.modules[obj.__module__], name)"
            " is obj] for name in unicolor.__all__ for obj in [getattr(unicolor, name)]}))")
        homes = json.loads(out)
        assert set(homes) == set(unicolor.__all__)
        assert all(same for _, same in homes.values())
        assert {module for module, _ in homes.values()} == {
            f"unicolor.{m}" for m in ("budget", "graphs", "colouring", "census", "constructions")}
        assert homes["CensusTask"][0] == "unicolor.census"
        assert homes["nu"][0] == "unicolor.constructions"

    def test_star_import_binds_every_name(self):
        out = _run("import json, unicolor\nfrom unicolor import *\n"
                   "print(json.dumps([n for n in unicolor.__all__ if n not in globals()]))")
        assert json.loads(out) == []

    def test_unknown_name_is_an_attribute_error(self):
        out = _run("import unicolor\n"
                   "try:\n    unicolor.no_such_name\n"
                   "except AttributeError as exc:\n    print(exc)\n")
        assert out == "module 'unicolor' has no attribute 'no_such_name'\n"
