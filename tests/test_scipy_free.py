"""The package runs with scipy blocked from import: scipy is a test-only dependency."""

import json
import os
import subprocess
import sys

import discordium

BLOCKED_RUN = r"""
import importlib, json, os, pkgutil, sys, tempfile
sys.modules["scipy"] = None
import numpy as np
import discordium
for info in pkgutil.iter_modules(discordium.__path__):
    importlib.import_module("discordium." + info.name)
from discordium import (ClassicalityCertificate, NotClassical, bipartite, certify_classical,
                        random_cq_state, random_state)
from discordium.cli import main, write_state_file

out = {
    "cq": type(certify_classical(random_cq_state(3, 2, seed=4))).__name__,
    "generic": type(certify_classical(bipartite(random_state(4, seed=5).mat, 2, 2))).__name__,
}
sys.stdout = open(os.devnull, "w")
with tempfile.TemporaryDirectory() as tmp:
    cq, generic, basis = (os.path.join(tmp, n) for n in ("cq.json", "gen.json", "eye.json"))
    write_state_file(basis, np.eye(2), [2])
    codes = {
        "random": main(["random", "--kind", "cq", "--da", "2", "--db", "2", "--seed", "3",
                        "-o", cq]),
        "random_haar": main(["random", "--kind", "haar", "--da", "2", "--db", "2",
                             "--seed", "5", "-o", generic]),
        "certify_cq": main(["certify", cq, "--json"]),
        "certify_generic": main(["certify", generic, "--json"]),
        "discord": main(["discord", cq, "--json"]),
        "petz_verify": main(["petz-verify", cq, "--basis", basis, "--json"]),
        "entropy": main(["entropy", generic, "--json"]),
        "counterexample": main(["counterexample", "--json"]),
        "bad_input": main(["entropy", os.path.join(tmp, "missing.json")]),
    }
sys.stdout = sys.__stdout__
print(json.dumps({"types": out, "codes": codes,
                  "scipy_loaded": any(m.startswith("scipy.") for m in sys.modules)}))
"""


def test_package_and_cli_run_with_scipy_blocked():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(discordium.__file__))}
    out = subprocess.run([sys.executable, "-c", BLOCKED_RUN], capture_output=True, text=True,
                         check=True, env=env)
    report = json.loads(out.stdout)
    assert report["types"] == {"cq": "ClassicalityCertificate", "generic": "NotClassical"}
    assert report["codes"] == {
        "random": 0, "random_haar": 0, "certify_cq": 0, "certify_generic": 1, "discord": 0,
        "petz_verify": 0, "entropy": 0, "counterexample": 0, "bad_input": 2,
    }
    assert not report["scipy_loaded"]
