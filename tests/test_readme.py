"""README's "Library use" section, run as written.

The section's Python blocks run in order, in one namespace, in a
directory holding the ``scan.pgm`` and ``model.txt`` they read, so the
names the README imports stay in step with the code.
"""

import random
import re
from pathlib import Path

import numpy as np

from scriptid import cli
from scriptid.classifier import load_model
from scriptid.corpus import render_page
from scriptid.netpbm import write_pgm

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def test_readme_library_use_runs(tmp_path, glyph_bank, monkeypatch, capsys):
    blocks = library_blocks()
    assert len(blocks) >= 2
    rng = random.Random(12)
    page, truth = render_page(rng, glyph_bank, n_lines=2, words_per_line=(2, 3), margin=30)
    write_pgm(str(tmp_path / "scan.pgm"), np.where(page == 1, 40, 215).astype(np.uint8))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["--seed", "5", "gen-corpus", "--out", "corpus", "--per-class", "12"]) == 0
    assert cli.main(["extract", "corpus", "--out", "features.csv"]) == 0
    assert cli.main(["train", "features.csv", "--out", "model.txt", "--k", "3"]) == 0
    capsys.readouterr()

    namespace = {"__name__": "readme"}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    words = capsys.readouterr().out.splitlines()
    assert len(words) == len(truth.words)
    labels = set(load_model("model.txt").label_set)
    for line in words:
        row, col, label = line.split()
        assert int(row) >= 0 and int(col) >= 0 and label in labels

    for block in blocks[1:]:
        exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out
