"""scripts/regen_corpus.py rebuilds every golden trace byte for byte.

The script is loaded from its path and only its trace_lines is called:
main and seeded_terms write files.
"""

import importlib.util
import json

from conftest import REPO_ROOT


def load_regen_corpus():
    spec = importlib.util.spec_from_file_location("regen_corpus", REPO_ROOT / "scripts" / "regen_corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_lines_reproduce_every_golden(corpus_dir):
    regen = load_regen_corpus()
    manifest = json.loads((corpus_dir / "golden" / "manifest.json").read_text(encoding="utf-8"))
    assert len(manifest) == 77
    for entry in manifest:
        lines = regen.trace_lines(corpus_dir / entry["source"], entry["machine"], entry["max_steps"], entry["compiled"])
        golden = (corpus_dir / "golden" / entry["golden"]).read_bytes()
        assert lines.encode("utf-8") == golden, entry["golden"]
