"""numpy and PyYAML are loaded only by the code that uses them.

The scalar path (oscillator, pattern formation, IK, the kinematic world,
the CSV writer, the SVG plot and the built-in registry) runs on floats and
`math`; numpy is imported by the batched kernel and `Observation.to_array`,
PyYAML by registry files.  The import check runs in a fresh interpreter,
since this one has loaded both long before.
"""

import json
import pathlib
import subprocess
import sys

import pytest

import quadcpg

SRC = str(pathlib.Path(quadcpg.__file__).resolve().parent.parent)

CHILD = r"""
import json, sys
before = set(sys.modules)
src, tmp = sys.argv[1:]
sys.path.insert(0, src)


def added():
    return [name for name in ("numpy", "yaml") if name in set(sys.modules) - before]


from quadcpg import cli
from quadcpg.environment import QuadrupedEnv
from quadcpg.registry import load_registry

stages = {}
for argv in (["robots"],
             ["rollout", "--robot", "A1", "--duration", "0.1", "--out", tmp + "/roll.csv"],
             ["plot", "--record", tmp + "/roll.csv", "--out", tmp + "/roll.svg"]):
    assert cli.main(argv) == 0, argv
env = QuadrupedEnv(load_registry().get("Dog3"))
env.reset()
env.step((1.0,) * 4 + (2.5,) * 4)
stages["scalar"] = added()

import quadcpg
quadcpg.evaluate_batch
stages["evaluate_batch"] = added()
with open(tmp + "/extra.yaml", "w") as fh:
    fh.write("robots: []\n")
load_registry(tmp + "/extra.yaml")
stages["registry_file"] = added()
print(json.dumps(stages))
"""


def test_scalar_path_loads_neither_numpy_nor_yaml(tmp_path):
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", CHILD, SRC, str(tmp_path)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout.splitlines()[-1])
    assert stages == {"scalar": [], "evaluate_batch": ["numpy"],
                      "registry_file": ["numpy", "yaml"]}


def test_evaluate_batch_is_the_kernels():
    import quadcpg.batch
    assert quadcpg.evaluate_batch is quadcpg.batch.evaluate_batch


def test_star_import_binds_every_export():
    namespace = {}
    exec("from quadcpg import *", namespace)
    assert namespace["evaluate_batch"] is quadcpg.evaluate_batch
    assert set(quadcpg.__all__) <= set(namespace)


def test_missing_attribute_names_itself():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        quadcpg.no_such_name
