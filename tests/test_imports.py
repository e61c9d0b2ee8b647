"""Import-time footprint of the package."""

import os
import subprocess
import sys
from pathlib import Path

import conic_walks


def test_import_loads_no_scipy():
    src = str(Path(conic_walks.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, conic_walks; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    missing = [name for name in conic_walks.__all__ if not hasattr(conic_walks, name)]
    assert missing == []
