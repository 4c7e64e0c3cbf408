import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import dmkit
import dmkit.synthesis

BENCH_SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_public_names_resolve_sorted_and_unique():
    names = dmkit.__all__
    assert [n for n in names if not hasattr(dmkit, n)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_benchmark_shims_resolve():
    # The benchmark times dmkit by rebinding these module attributes, so a
    # renamed or deleted one would otherwise only show in a benchmark run.
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH_SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SHIMS
    missing = [(m, a) for m, a, _ in spans.SHIMS if not hasattr(importlib.import_module("dmkit." + m), a)]
    assert missing == []


def test_imports_only_the_standard_library():
    # dmkit has no runtime dependencies: importing it and its CLI loads no
    # top-level module outside the standard library besides dmkit itself.
    code = (
        "import sys; before = set(sys.modules); import dmkit, dmkit.cli; "
        "added = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(added - set(sys.stdlib_module_names) - {'dmkit'}))"
    )
    src = str(Path(dmkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert run.stdout == "[]\n"


def _parse(module):
    return ast.parse(Path(module.__file__).read_text())


def test_codec_owns_the_tables_it_reads():
    # synthesis imports LutSet from codec, so codec may name synthesis only
    # for type checking, and synthesis defines none of the codec's views.
    tree = _parse(dmkit.codec)
    typing_only = {
        id(n) for block in tree.body if isinstance(block, ast.If) and ast.unparse(block.test) == "TYPE_CHECKING" for n in ast.walk(block)
    }
    imported = [
        (n.lineno, name)
        for n in ast.walk(tree)
        if isinstance(n, (ast.Import, ast.ImportFrom)) and id(n) not in typing_only
        for name in [getattr(n, "module", None) or "", *(a.name for a in n.names)]
    ]
    assert [(line, name) for line, name in imported if "synthesis" in name.split(".")] == []
    defined = {n.name for n in ast.walk(_parse(dmkit.synthesis)) if isinstance(n, (ast.ClassDef, ast.FunctionDef))}
    assert defined.isdisjoint({"LutSet", "info_groups", "encode_slots", "decode_slots", "one_word", "field_slots"})
    assert dmkit.LutSet is dmkit.synthesis.LutSet is dmkit.codec.LutSet
