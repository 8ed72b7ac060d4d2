"""The package names that the benchmark binds to still exist.

``bench/spans.py`` names the functions its tracer wraps in ``TARGETS``, and
``bench/run.py`` builds a ``PipelineConfig`` per workload and calls stage
functions by name. A refactor that renames or removes one would otherwise
show only in the slow benchmark tests (``python3 -m pytest -q bench/tests``).
The bench files are read, never changed.
"""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from bana import crf, fileio, pipeline
from bana.crf import CrfParams
from bana.synth import synth_corpus

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = BENCH.parent / "src"


def _load(monkeypatch, name: str, filename: str):
    # run.py imports its siblings as top-level modules, and its dataclasses
    # look their module up in sys.modules while the class is built.
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location(name, BENCH / filename)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(monkeypatch):
    spans = _load(monkeypatch, "bench_spans", "spans.py")
    missing = [
        f"{modname}.{fname}"
        for modname, funcs in spans.TARGETS.items()
        for fname in funcs
        if not callable(getattr(importlib.import_module(modname), fname, None))
    ]
    assert spans.TARGETS and not missing


def test_bench_run_bindings_resolve(monkeypatch, tmp_path):
    run = _load(monkeypatch, "bench_run", "run.py")
    for wl in run.WORKLOADS.values():
        cfg = run.pipeline_config(wl, tmp_path / "corpus", tmp_path / "out", 1)
        assert cfg.jobs == wl.jobs and cfg.seed == 1, wl.name
        inspect.signature(synth_corpus).bind(str(tmp_path), **run.synth_kwargs(1, wl.images))
    names = [fn for _, fn in run.STAGES] + ["_labels_worker", "mean_field"]
    missing = [name for name in names if not callable(getattr(pipeline, name, None))]
    assert run.STAGES and not missing


def test_paper_crf_holds_every_crf_params_default(monkeypatch):
    # run.py documents PAPER_CRF as the defaults of CrfParams, under config keys.
    run = _load(monkeypatch, "bench_run", "run.py")
    assert run.PAPER_CRF == {f"crf_{f.name}": getattr(CrfParams(), f.name) for f in fields(CrfParams)}


def test_import_bana_loads_every_traced_module(monkeypatch):
    # The tracer rebinds functions only in the modules already loaded, so a bare
    # `import bana` in a fresh interpreter must load every module it traces.
    spans = _load(monkeypatch, "bench_spans", "spans.py")
    code = "import sys; sys.path.insert(0, sys.argv[1]); import bana; print(' '.join(sorted(sys.modules)))"
    loaded = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True, text=True,
                            check=True).stdout.split()
    assert sorted(set(spans.TARGETS) - set(loaded)) == []


def test_zero_iterations_still_build_the_lattice(monkeypatch):
    # run.py's CRF probe times set-up as mean_field with 0 iterations, so that
    # call must still build the lattice once and calibrate it once.
    calls = {"lattice": 0, "term": 0}
    lattice, term = crf._Lattice, crf._lattice_term

    def counted_lattice(features):
        calls["lattice"] += 1
        return lattice(features)

    def counted_term(features):
        calls["term"] += 1
        return term(features)

    monkeypatch.setattr(crf, "_Lattice", counted_lattice)
    monkeypatch.setattr(crf, "_lattice_term", counted_term)
    rng = np.random.default_rng(0)
    unary = rng.uniform(size=(3, 8, 8))
    image = rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8)
    crf.mean_field(unary, image, CrfParams(iterations=0))
    assert calls == {"lattice": 1, "term": 1}


def test_crf_probe_sees_one_positional_call_per_labels_worker(monkeypatch, tmp_path):
    # run.py's CRF probe wraps pipeline.mean_field as `keep(*args)`, runs one
    # _labels_worker((cfg, image_id)) call, and takes that one call's three
    # arguments as the image's CRF inputs and its labels as labels/crf/<id>.pgm.
    corpus = tmp_path / "corpus"
    synth_corpus(corpus, seed=0, num_images=2, size=32, num_classes=3)
    cfg = pipeline.PipelineConfig(corpus_dir=str(corpus), out_dir=str(tmp_path / "out"), head_epochs=5,
                                  stages=["train-head", "labels"])
    pipeline.run_pipeline(cfg)
    calls, original = [], pipeline.mean_field

    def keep(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(pipeline, "mean_field", keep)
    pipeline._labels_worker((cfg, "0001"))
    assert [len(args) for args, _ in calls] == [3]
    written = fileio.read_label_map(tmp_path / "out" / "labels" / "crf" / "0001.pgm")
    assert np.array_equal(calls[0][1][0], written)
