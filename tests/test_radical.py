"""The radical by the p-power trace chain.

``jacobson_radical`` no longer runs the MeatAxe. The meet of the class
annihilators among the regular module's composition factors, which it used
to return, is the oracle here: on the gallery shapes at p in
{2, 3, 5, 53, 1009}, on algebras whose chain has levels beyond the trace
form (p <= d, odd p included), and on random associative algebras (presets
in a random dense basis, and their quotients by random ideals). The float64
power traces are checked against int64 powers at the largest moduli the
chain uses. The commands convert the structure constants to float64 once."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrtop import docs, meataxe
from irrtop.cli import run
from irrtop.algebra import ideal_generated, product_space, quotient_algebra, radical_powers
from irrtop.linalg import Subspace
from irrtop.meataxe import annihilator_meet, jacobson_radical
from irrtop.oracles import simple_classes
from test_check_matrices import SHAPES, _preset
from test_validation import rebase


def meataxe_radical(a, seed=0) -> Subspace:
    """The meet of the class annihilators of the regular module's
    composition factors."""
    return annihilator_meet(a, [ann.subspace for _, ann in simple_classes(a, seed)])


def shapes_at(p):
    out = []
    for shape in SHAPES:
        try:
            out.append(_preset(shape.format(p=p)))
        except ValueError:  # d**2 * (p - 1)**3 reaches 2**63
            pass
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 53, 1009])
def test_radical_matches_the_meataxe_meet_on_the_gallery(p):
    for a in shapes_at(p):
        assert jacobson_radical(a).subspace == meataxe_radical(a), a.name


LONG_CHAINS = [
    "group_algebra(C9, 3)",
    "group_algebra(S3, 3)",
    "group_algebra(C25, 5)",
    "truncated_polynomial(30, 5)",
    "upper_triangular(5, 5)",
    "upper_triangular(7, 2)",
    "matrix_algebra(4, 2)",
    "product(group_algebra(S3, 2), truncated_polynomial(5, 2))",
]


@pytest.mark.parametrize("chunk", [None, 1], ids=["one-stack", "one-matrix-per-stack"])
@pytest.mark.parametrize("expr", LONG_CHAINS)
def test_radical_matches_the_meataxe_meet_where_the_chain_has_levels(expr, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(meataxe, "TRACE_CHUNK", chunk)
    a = _preset(expr)
    assert a.p <= a.dim
    for seed in (0, 1):
        assert jacobson_radical(a, seed).subspace == meataxe_radical(a, seed), expr


def test_a_trace_off_the_chain_breaks_the_self_check(monkeypatch):
    a = _preset("upper_triangular(3, 2)")
    power_traces = meataxe._power_traces
    monkeypatch.setattr(meataxe, "_power_traces", lambda mats, p, i: power_traces(mats, p, i) + 1)
    with pytest.raises(AssertionError, match="not divisible"):
        jacobson_radical(a)


@settings(max_examples=60)
@given(
    st.sampled_from(SHAPES),
    st.sampled_from([2, 3, 5]),
    st.integers(0, 2**16),
    st.lists(st.lists(st.integers(0, 4), min_size=12, max_size=12), max_size=2),
)
def test_radical_matches_the_meataxe_meet_on_random_algebras(shape, p, seed, gens):
    a = rebase(_preset(shape.format(p=p)), seed)
    ideal = ideal_generated(a, [np.array(g[: a.dim]) % p for g in gens], "two-sided")
    if 0 < ideal.dim < a.dim:
        a, _ = quotient_algebra(a, ideal)
    assert jacobson_radical(a).subspace == meataxe_radical(a, seed)


def power_traces_oracle(mats, p, i):
    """Tr(M^(p^i)) mod p^(i+1) by p^i - 1 int64 products."""
    q = p ** (i + 1)
    out = []
    for m in mats.astype(np.int64):
        y = m.copy()
        for _ in range(p**i - 1):
            y = y @ m % q
        out.append(int(np.trace(y)) % q)
    return out


@pytest.mark.parametrize("n, p, i", [(144, 2, 7), (144, 3, 4), (144, 11, 2), (144, 139, 1), (30, 5, 2)])
def test_power_traces_are_exact_up_to_the_largest_modulus(n, p, i):
    rng = np.random.default_rng(n * p + i)
    mats = rng.integers(0, p, size=(2, n, n)).astype(np.float64)
    mats[0] = p - 1
    assert meataxe._power_traces(mats, p, i).tolist() == power_traces_oracle(mats, p, i)


def powers_oracle(a, rad):
    """J, J^2, ... by J^(k+1) = J^k J, down to the last nonzero power."""
    out, power = [], rad
    while power.dim:
        out.append(power)
        power = product_space(a, power, rad)
    return out


@pytest.mark.parametrize("expr", LONG_CHAINS + ["upper_triangular(6, 3)"])
def test_radical_powers_match_the_powers_by_j(expr):
    a = _preset(expr)
    rad = jacobson_radical(a).subspace
    assert radical_powers(a, rad) == powers_oracle(a, rad), expr


@pytest.mark.parametrize("p", [2, 3, 5, 53, 1009])
def test_radical_powers_match_the_powers_by_j_on_the_gallery(p):
    for a in shapes_at(p):
        rad = jacobson_radical(a).subspace
        assert radical_powers(a, rad) == powers_oracle(a, rad), a.name


def test_an_ideal_that_is_not_nilpotent_breaks_the_power_check():
    """J = rad(GF(p)[x]/(x^2)) x GF(p) in GF(p)[x]/(x^2) x GF(p): J^2 = 0 x GF(p)
    is smaller than J, but J W = 0 for the complement W = span{x}, so only
    the check J W = J^2 sees that J is not nilpotent."""
    a = _preset("product(truncated_polynomial(2, 3), commutative_split(1, 3))")
    j = Subspace.from_rows([[0, 1, 0], [0, 0, 1]], 3)
    with pytest.raises(AssertionError, match="J W is not J\\^2"):
        radical_powers(a, j)
    with pytest.raises(AssertionError, match="J\\^2 has dimension 3, J\\^1 3"):
        radical_powers(a, Subspace.full(3, 3))


class CountedConstants(np.ndarray):
    """Structure constants that count their float64 conversions: those of
    an array sharing memory with ``source``, the loaded algebra's constants
    (reshapes and slices of them included)."""

    source = None
    conversions = 0

    def astype(self, dtype, *args, **kwargs):
        out = self.view(np.ndarray).astype(dtype, *args, **kwargs)
        if out.dtype == np.float64 and np.may_share_memory(self, CountedConstants.source):
            CountedConstants.conversions += 1
        return out


@pytest.mark.parametrize("command", ["radical", "chain-bound"])
@pytest.mark.parametrize("expr", ["truncated_polynomial(20, 2)", "upper_triangular(5, 2)", "group_algebra(C6, 3)"])
def test_the_commands_convert_the_constants_to_float64_once(expr, command, tmp_path, monkeypatch):
    build = docs.build_algebra

    def counted(doc):
        a = build(doc)
        CountedConstants.source = a.mul
        object.__setattr__(a, "mul", a.mul.view(CountedConstants))
        return a

    monkeypatch.setattr(docs, "build_algebra", counted)
    monkeypatch.setattr(CountedConstants, "conversions", 0)
    path = tmp_path / "a.alg"
    path.write_text(f"preset: {expr}\n")
    code, _ = run([command, "--in", str(path)])
    assert code == 0
    assert CountedConstants.conversions == 1
