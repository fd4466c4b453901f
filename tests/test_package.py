import os
import subprocess
import sys

import quditstab


def test_all_lists_the_public_names_once():
    assert len(quditstab.__all__) == len(set(quditstab.__all__))
    assert all(hasattr(quditstab, name) for name in quditstab.__all__)


def test_all_equals_the_names_a_fresh_import_exports():
    # a fresh interpreter: other tests import further submodules into the package
    script = "import quditstab; print(' '.join(n for n in dir(quditstab) if not n.startswith('_')))"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert set(out.stdout.split()) == set(quditstab.__all__)
