"""Source hygiene: each module of the package uses every name it imports, and
no bana path loads numpy's masked-array package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bana

# __init__.py imports names only to re-export them.
_MODULES = sorted(p for p in Path(bana.__file__).parent.glob("*.py") if p.name != "__init__.py")

# Under numpy 2.4, each of these imports numpy.ma on its first call (about 18 ms
# and 1.2 MB per process); np.isin, np.sort and np.bincount do not.
_LOADS_NUMPY_MA = {"unique", "median", "nanmedian", "percentile", "quantile",
                   "union1d", "intersect1d", "setdiff1d", "setxor1d"}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({alias.asname or alias.name.split(".")[0]: node.lineno for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def _numpy_ma_calls(tree: ast.Module) -> list[str]:
    return sorted(
        f"np.{node.func.attr} (line {node.lineno})" for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
        and node.func.attr in _LOADS_NUMPY_MA
    )


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_calls_nothing_that_loads_numpy_ma(path):
    assert _numpy_ma_calls(ast.parse(path.read_text())) == []


_EVERY_COMMAND = """
import json, sys
from pathlib import Path
import numpy as np
from bana import fileio
from bana.cli import main

tmp = Path(sys.argv[1])
corpus, out = tmp / "corpus", tmp / "out"

def bana(*argv):
    assert main([str(a) for a in argv]) == 0, argv

bana("synth", "--out", corpus, "--images", 2, "--size", 32)
(tmp / "cfg.json").write_text(json.dumps({"corpus_dir": str(corpus), "out_dir": str(out), "head_epochs": 30,
    "seg_epochs": 2, "dump_attention": True, "dump_confidence_every": 1}))
bana("run", "--config", tmp / "cfg.json", "--jobs", 1)
bana("labels", "--features", corpus / "features/0000.btf", "--boxes", corpus / "boxes/0000.json",
     "--image", corpus / "images/0000.ppm", "--head", out / "head/classifier.btf",
     "--out-crf", tmp / "crf.pgm", "--out-ret", tmp / "ret.pgm", "--out-fused", tmp / "fused.pgm")
fileio.write_tensor(tmp / "unary.btf", np.linspace(0.0, 1.0, 4 * 32 * 32, dtype=np.float32).reshape(4, 32, 32))
bana("crf", "--unary", tmp / "unary.btf", "--image", corpus / "images/0000.ppm", "--out", tmp / "y.pgm")
bana("nal-train", "--features-dir", corpus / "features", "--labels-crf-dir", out / "labels/crf",
     "--labels-ret-dir", out / "labels/ret", "--out-head", tmp / "seg.btf", "--epochs", 2)
bana("eval", "--pred-dir", out / "preds", "--ref-dir", corpus / "gt", "--classes", 3)
print("numpy.ma loaded:", "numpy.ma" in sys.modules)
"""


def test_no_command_loads_numpy_ma(tmp_path):
    # A fresh interpreter, so that nothing another test ran has loaded it; the
    # nal-train call infers its class count from the CRF label maps.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", _EVERY_COMMAND, str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "numpy.ma loaded: False"
