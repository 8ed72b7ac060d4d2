"""Source hygiene: each module of the package uses every name it imports, no
bana path loads numpy's masked-array package, and only synthesis and the noise
experiment load numpy.random."""

import ast
import json
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


# The same commands but synth, plus train-head: none of them may load numpy.random,
# whose import of secrets loads hashlib and maps OpenSSL's libcrypto (about 6 MB
# of peak RSS that only a new corpus needs). The corpus comes from another
# process, since synthesis draws from numpy.random.
_RUN_PATH = """
import json, sys
from pathlib import Path
import numpy as np
from bana import fileio
from bana.cli import main

tmp = Path(sys.argv[1])
corpus, out = tmp / "corpus", tmp / "out"

def bana(*argv):
    assert main([str(a) for a in argv]) == 0, argv

(tmp / "cfg.json").write_text(json.dumps({"corpus_dir": str(corpus), "out_dir": str(out), "head_epochs": 30,
    "seg_epochs": 2, "dump_attention": True, "dump_confidence_every": 1}))
bana("run", "--config", tmp / "cfg.json", "--jobs", 1)
bana("train-head", "--features-dir", corpus / "features", "--boxes-dir", corpus / "boxes", "--out", tmp / "head.btf",
     "--epochs", 5)
bana("labels", "--features", corpus / "features/0000.btf", "--boxes", corpus / "boxes/0000.json",
     "--image", corpus / "images/0000.ppm", "--head", tmp / "head.btf",
     "--out-crf", tmp / "crf.pgm", "--out-ret", tmp / "ret.pgm", "--out-fused", tmp / "fused.pgm")
fileio.write_tensor(tmp / "unary.btf", np.linspace(0.0, 1.0, 4 * 32 * 32, dtype=np.float32).reshape(4, 32, 32))
bana("crf", "--unary", tmp / "unary.btf", "--image", corpus / "images/0000.ppm", "--out", tmp / "y.pgm")
bana("nal-train", "--features-dir", corpus / "features", "--labels-crf-dir", out / "labels/crf",
     "--labels-ret-dir", out / "labels/ret", "--out-head", tmp / "seg.btf", "--epochs", 2)
bana("eval", "--pred-dir", out / "preds", "--ref-dir", corpus / "gt", "--classes", 3)
print(json.dumps(sorted(name for name in ("numpy.random", "secrets", "hashlib") if name in sys.modules)))
"""


def test_only_synthesis_loads_numpy_random(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-m", "bana.cli", "synth", "--out", str(tmp_path / "corpus"), "--images", "2",
                    "--size", "32"], env=env, check=True, capture_output=True, timeout=120)
    done = subprocess.run([sys.executable, "-c", _RUN_PATH, str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


# The functions that may use numpy.random, per module; None allows the whole
# module. Synthesis and the noise experiment draw fixtures and injected noise;
# training draws from clshead's keyed streams.
_NUMPY_RANDOM_ALLOWED = {
    "synth.py": None,
    "pipeline.py": {"inject_disagreement_noise", "noise_robustness_experiment"},
}


def _names_numpy_random(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "np" and node.attr == "random"
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("numpy.random") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith("numpy.random") or module == "numpy" and any(a.name == "random" for a in node.names)
    return False


def _numpy_random_uses(tree: ast.Module) -> list[str]:
    """The top-level definitions of a module that name np.random or import numpy.random."""
    return sorted({getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
                   if _names_numpy_random(node)})


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_only_synthesis_and_noise_injection_use_numpy_random(path):
    allowed = _NUMPY_RANDOM_ALLOWED.get(path.name, set())
    uses = _numpy_random_uses(ast.parse(path.read_text()))
    assert allowed is None or set(uses) <= allowed, uses
