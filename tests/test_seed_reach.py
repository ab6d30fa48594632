"""The seed reaches only code that draws. Every answer about the class space,
the representatives of the simple classes included, is a function of the
algebra; ``--seed`` steers only sampled scans, sampled candidate vectors and
the selftest, and is named in each report's header."""

import ast
from pathlib import Path

import pytest

import irrtop
from irrtop.cli import run
from irrtop.embeddings import CANDIDATE_CAP, EXHAUSTIVE_CAP
from irrtop.presets import group_algebra, symmetric3_table
from irrtop.topology import enumerate_irr

# Functions that may keep a seed parameter they never read, with the reason.
UNREAD_SEED_ALLOWED = {
    "jacobson_radical": "the trace-chain radical draws nothing, but perfbench/tests/test_tracer.py passes seed=2",
}


def _unread_seed_parameters() -> set[str]:
    found = set()
    for path in sorted(Path(irrtop.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if all(arg.arg != "seed" for arg in params):
                continue
            reads = (
                isinstance(n, ast.Name) and n.id == "seed" and isinstance(n.ctx, ast.Load)
                for stmt in node.body
                for n in ast.walk(stmt)
            )
            if not any(reads):
                found.add(node.name)
    return found


def test_every_seed_parameter_is_read():
    assert _unread_seed_parameters() == set(UNREAD_SEED_ALLOWED)


SIMPLE_PAIR_COMMANDS = [
    ["embed", "--ideal", "{ann}"],
    ["embed-staged", "--ideal", "{ann}"],
    ["embed-chain"],
    ["stability", "--t", "1", "--ideal", "{ann}"],
    ["sufficiency"],
]


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("command", SIMPLE_PAIR_COMMANDS, ids=lambda c: c[0])
def test_simple_factor_output_is_the_same_at_every_seed(tmp_path, p, command):
    """Two copies of the 2-dimensional simple#2 of group_algebra(S3, p): the
    product has p^4 <= 4096 states and each factor p^2 <= 256 vectors, so no
    command draws, and the reports differ only in their seed line."""
    assert p**4 <= EXHAUSTIVE_CAP and p**2 <= CANDIDATE_CAP
    pt = enumerate_irr(group_algebra(symmetric3_table(), p)).points[2]
    assert pt.dim == 2
    ann = " ; ".join(" ".join(map(str, row)) for row in pt.ann.subspace.basis)
    fam = tmp_path / "pair.fam"
    fam.write_text(f"algebra: preset group_algebra(S3, {p})\nfactor: simple#2\nfactor: simple#2\n")
    argv = [arg.replace("{ann}", ann) for arg in command] + ["--in", str(fam), "--format", "structured"]
    outputs = set()
    for seed in range(8):
        code, out = run(argv + ["--seed", str(seed)])
        assert code == 0, out
        outputs.add("".join(line for line in out.splitlines(keepends=True) if not line.startswith("seed: ")))
    assert len(outputs) == 1, outputs
