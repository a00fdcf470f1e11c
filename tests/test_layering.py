"""The theta kernel's internals stay in theta.py: every other module reads
theta values through a per-tau object (CurveData, or the degeneration
layer's Genus1Data), never by driving the kernel's grids itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "g2theta"

KERNEL_NAMES = {
    "_grid_sums", "_class_terms", "_point_row", "_certify", "_lattice_form", "_layout",
    "_by_grid", "_radius", "_radii", "_decay",
}


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "theta.py"))
def test_no_module_but_theta_imports_the_kernel_internals(path):
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"), filename=path)
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported & KERNEL_NAMES == set()
