"""Every function in hslab is reached by a command, or named as library-only.

The commands of the CLI run in a child interpreter under sys.setprofile,
set before hslab is imported so that its import-time work counts: verify on a
flat, a Picard-twisted, a deformed and a non-harmonic family, with a --json
report; the degenerate and malformed exits; sweep with --require-ch2
--require-harmonic and with --raw; and selftest.  Every non-dunder function
and method defined in src/hslab/*.py must then have been called, or be
named in LIBRARY_ONLY with the reason it stays although no command reaches
it.
"""

import inspect
import json
import os
import subprocess
import sys
import types

import pytest

import hslab

SRC = os.path.dirname(os.path.abspath(hslab.__file__))

LIBRARY_ONLY = {
    "algebroid.QOperator.dump":
        "golden format of the pinned moment-residual digest (test_harmonic)",
    "bundles.LineBundleTriple.hermitian_matrix":
        "test oracle: the coefficient matrix behind curvature_from_triple",
    "bundles.hermitian_curvature":
        "test oracle: curvature of a Hermitian matrix, against the triple's",
    "cealg.InvariantVector.is_zero":
        "test read-out of connection differences and of a sharp",
    "cealg.InvariantForm.apply":
        "test oracle of InvariantForm.at and of d, by contractions",
    "harmonic.higgs_equation_residuals":
        "paper identity: the Higgs-type form of the moment maps",
    "hermitian.ConnectionCoefficients.nabla":
        "test oracle: Bismut equals Levi-Civita on the torus; torsion",
    "hermitian.ConnectionCoefficients.torsion":
        "test oracle: the Bismut torsion is d^c omega",
    "iwasawa.VerificationReport.comparable":
        "report reader: a report without its parameter echo",
    "iwasawa.VerificationReport.from_json":
        "report reader of the --json output",
    "scalars.Scalar.items":
        "coefficient read-out of the sympy oracle tests",
}


def _defined():
    """module.qualname of every non-dunder function defined in src/hslab."""
    out = set()
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(SRC, name)
        with open(path, encoding="utf-8") as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if not isinstance(const, types.CodeType):
                    continue
                stack.append(const)
                last = const.co_qualname.rsplit(".", 1)[-1]
                if (not const.co_flags & inspect.CO_NEWLOCALS  # class body
                        or last.startswith("<")  # lambda, comprehension
                        or (last.startswith("__") and last.endswith("__"))):
                    continue
                out.add("%s.%s" % (name[:-3], const.co_qualname))
    return out


# Runs in a child interpreter, profiled from before `import hslab`, so that
# what runs at import (the process's Iwasawa model) counts as reached.
_CHILD = """
import json, os, sys
codes = set()

def profile(frame, event, arg):
    if event == "call":
        codes.add(frame.f_code)

sys.setprofile(profile)
from hslab.cli import main
exits = [main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
import hslab
src = os.path.dirname(os.path.abspath(hslab.__file__))
with open(sys.argv[2], "w") as fh:
    json.dump({"exits": exits, "src": src, "reached": sorted(
        "%s.%s" % (os.path.basename(c.co_filename)[:-3], c.co_qualname)
        for c in codes if os.path.dirname(c.co_filename) == src)}, fh)
"""


def _reached(tmp_path):
    """module.qualname of every src/hslab function the commands call."""
    report, catalog = str(tmp_path / "r.json"), str(tmp_path / "c.jsonl")
    pair = ["verify", "--triples", "1,2,2,2,-1,0"]
    commands = [
        (pair + ["--json", report], 0),
        (pair + ["--picard", "1/3,0,0,-2/7"], 0),
        (pair + ["--tau", "1/10,0,-1/4,0"], 0),
        (["verify", "--triples", "1,1,0,1,0,0"], 0),  # not harmonic
        (["verify", "--triples", "1,2,2,2,2,1"], 2),
        (pair + ["--tau", "1/2,1/2,1/2,1/2"], 3),  # not positive
        (["nonsense"], 3),
        (["sweep", "--max", "1", "--require-ch2", "--require-harmonic",
          "--out", catalog], 0),
        (["sweep", "--max", "1", "--raw", "--out", catalog], 0),
        (["selftest"], 0),
    ]
    out = tmp_path / "reached.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.dirname(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", _CHILD,
                    json.dumps([argv for argv, _ in commands]), str(out)],
                   env=env, check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, timeout=600)
    doc = json.loads(out.read_text())
    assert doc["src"] == SRC
    assert doc["exits"] == [code for _, code in commands]
    return set(doc["reached"])


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs co_qualname")
def test_every_function_is_reached_or_library_only(tmp_path):
    defined = _defined()
    reached = _reached(tmp_path)
    unreached = defined - reached
    assert sorted(unreached - set(LIBRARY_ONLY)) == []
    # the list stays honest: each name exists and no command reaches it
    assert sorted(set(LIBRARY_ONLY) - unreached) == []
