"""System bundle: composition operator, validation, law checks, generator, JSON."""

import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ergolab as E
from ergolab import system as system_module

from conftest import block_crossing_system, components, systems, systems_with_vectors
from test_small_universe import every_valid_system, set_partitions

F = Fraction


def rv(*xs):
    return E.RieszVector(xs)


# --- composition operator -------------------------------------------------------

def test_identity_map_fixes_everything():
    koop = E.KoopmanMap([0, 1, 2])
    f = rv(3, F(1, 2), -1)
    assert koop.apply(f) == f


def test_cycle_composition():
    koop = E.KoopmanMap([1, 2, 0])
    assert koop.apply(rv(10, 20, 30)) == rv(20, 30, 10)


def test_sigma_entries_validated():
    with pytest.raises(ValueError, match="out of range"):
        E.KoopmanMap([0, 3])


@given(st.integers(1, 7), st.data())
def test_composition_preserves_components(n, data):
    sigma = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    p = data.draw(components(n))
    image = E.KoopmanMap(sigma).apply(p)
    assert isinstance(image, E.Component)
    assert E.is_component(image)


@given(systems_with_vectors())
def test_composition_is_lattice_homomorphism(pair):
    system, f = pair
    g = E.KoopmanMap(tuple(reversed(system.koopman.sigma))).apply(f)  # any second vector
    koop = system.koopman
    assert koop.apply(f.sup(g)) == koop.apply(f).sup(koop.apply(g))
    assert koop.apply(f.inf(g)) == koop.apply(f).inf(koop.apply(g))


def test_cycles_of_permutation():
    koop = E.KoopmanMap([1, 0, 3, 4, 2])
    assert koop.cycles() == ((0, 1), (2, 3, 4))


def test_cycles_require_permutation():
    with pytest.raises(ValueError):
        E.KoopmanMap([0, 0]).cycles()


@pytest.mark.parametrize("make", [
    lambda seed: E.random_system(3 + seed % 7, 1 + seed % 3, seed),
    lambda seed: E.CepsSystem.from_parts([F(1, 5)] * 5, [[0, 1, 2], [3, 4]],
                                         [[1, 2, 0, 4, 3], [2, 0, 1, 3, 4]][seed % 2]),
], ids=["random_system", "from_parts"])
def test_one_cycle_decomposition_per_map(make):
    for seed in range(20):
        system = make(seed)
        assert system.cycles is system.koopman.cycles()
        assert system.koopman.cycles() is system.koopman.cycles()
        assert system.cycles is system.cycles


def test_a_non_permutation_has_no_cycles():
    system = E.CepsSystem.from_parts([F(1, 3)] * 3, [[0, 1, 2]], [1, 2, 1])
    assert system.cycles is None
    assert not system.koopman.is_permutation()
    with pytest.raises(ValueError):
        system.koopman.cycles()


def test_a_construction_walks_the_atom_map_once(monkeypatch):
    walk = system_module._cycle_decomposition
    walks = []

    def counted(sigma):
        walks.append(sigma)
        return walk(sigma)

    monkeypatch.setattr(system_module, "_cycle_decomposition", counted)
    system = E.random_system(9, 3, seed=4)
    assert system.is_valid and system.split_cycle is not None
    assert walks == [system.koopman.sigma]


# --- validation --------------------------------------------------------------------

def test_trivial_partition_any_permutation_is_valid():
    system = E.CepsSystem.from_parts([F(1, 4)] * 4, [[0, 1, 2, 3]], [2, 0, 3, 1])
    assert system.is_valid


def test_non_surjective_map_fails():
    system = E.CepsSystem.from_parts([F(1, 2), F(1, 2)], [[0, 1]], [0, 0])
    assert not system.is_valid
    assert not system.report.check("basis-preservation").passed
    assert not system.report.check("permutation").passed


def test_block_crossing_swap_fails():
    system = block_crossing_system()
    assert not system.is_valid
    assert not system.report.check("basis-preservation").passed
    assert not system.report.check("blocks-invariant").passed
    assert system.report.check("basis-preservation").witness is not None


def test_cycle_varying_weights_fail():
    system = E.CepsSystem.from_parts([F(1, 3), F(2, 3)], [[0, 1]], [1, 0])
    assert not system.is_valid
    assert not system.report.check("weights-cycle-constant").passed


def validation_bundles():
    """Hand-built bundles, every small-universe system, and every atom map
    on up to three atoms over every partition, under uniform and graded weights."""
    yield E.CepsSystem.from_parts([F(1, 2), F(1, 2)], [[0, 1]], [0, 0])
    yield block_crossing_system()
    yield E.CepsSystem.from_parts([F(1, 3), F(2, 3)], [[0, 1]], [1, 0])
    yield from every_valid_system()
    for n in range(1, 4):
        graded = [F(2 * (i + 1), n * (n + 1)) for i in range(n)]
        for partition in set_partitions(list(range(n))):
            for weights in ([F(1, n)] * n, graded):
                exp = E.ConditionalExpectation(weights, partition)
                for sigma in product(range(n), repeat=n):
                    yield E.CepsSystem(exp, E.KoopmanMap(sigma))


def test_every_reported_validation_check_can_fail():
    """A check that no bundle fails says nothing: each name reported must fail somewhere."""
    reported, failed = set(), set()
    for system in validation_bundles():
        reported.update(c.name for c in system.report.checks)
        failed.update(c.name for c in system.report.failures)
    assert reported == failed == {"basis-preservation", "permutation", "blocks-invariant",
                                  "weights-cycle-constant"}


def test_dimension_mismatch_between_operators():
    with pytest.raises(E.DimensionMismatch):
        E.validate_system(E.ConditionalExpectation([1], [[0]]), E.KoopmanMap([0, 1]))


def brute_basis_preservation(expectation, koopman):
    """Independent check of the defining law on the basis, no report machinery."""
    n = expectation.n
    for k in range(n):
        ek = E.basis_vector(n, k)
        if expectation.apply(koopman.apply(ek)) != expectation.apply(ek):
            return False
    return True


@given(systems(), st.data())
@settings(max_examples=60)
def test_structural_characterization_agrees_with_basis_law(system, data):
    """The permutation/blocks/weights laws hold iff the basis law holds, also off
    the generator's happy path (random perturbations of sigma)."""
    n = system.n
    sigma = list(system.koopman.sigma)
    if data.draw(st.booleans()) and n > 1:
        i = data.draw(st.integers(0, n - 1))
        sigma[i] = data.draw(st.integers(0, n - 1))
    koop = E.KoopmanMap(sigma)
    report = E.validate_system(system.expectation, koop)
    brute = brute_basis_preservation(system.expectation, koop)
    assert report.check("basis-preservation").passed == brute
    structural = (
        koop.is_permutation()
        and report.check("blocks-invariant").passed
        and report.check("weights-cycle-constant").passed
    )
    assert structural == brute


def test_structural_agreement_at_scale():
    """validate_system vs the brute basis law on 1000 seeded systems, half perturbed."""
    rng = __import__("random").Random(424242)
    checked = 0
    for i in range(1000):
        n = rng.randint(1, 9)
        base = E.random_system(n, rng.randint(1, min(4, n)), seed=31 * i + 1)
        sigma = list(base.koopman.sigma)
        if i % 2 and n > 1:
            sigma[rng.randrange(n)] = rng.randrange(n)  # perturb, possibly into invalidity
        koop = E.KoopmanMap(sigma)
        report = E.validate_system(base.expectation, koop)
        assert report.check("basis-preservation").passed == brute_basis_preservation(
            base.expectation, koop
        )
        checked += 1
    assert checked == 1000


@given(systems())
def test_defining_law_and_its_mirror(system):
    """Averaging absorbs composition on either side, exactly, on the basis."""
    exp, koop = system.expectation, system.koopman
    for k in range(system.n):
        ek = E.basis_vector(system.n, k)
        averaged = exp.apply(ek)
        assert exp.apply(koop.apply(ek)) == averaged
        assert koop.apply(averaged) == averaged


# --- law checks -----------------------------------------------------------------------

@given(systems())
def test_range_fixed_on_valid_systems(system):
    assert E.check_range_fixed(system).passed


def test_range_fixed_fails_across_blocks():
    report = E.check_range_fixed(block_crossing_system())
    assert not report.passed
    witness = report.check("range-fixed").witness
    assert witness is not None and E.is_component(witness)


def test_range_fixed_trivial_partition():
    system = E.CepsSystem.from_parts([F(1, 3)] * 3, [[0, 1, 2]], [1, 2, 0])
    assert E.check_range_fixed(system).passed


def check_component_projection(expectation, trials=100, seed=0):
    """Literal law: whenever the average of a 0/1 vector is again a 0/1 vector, it is that vector.

    Sampled over random components plus the forced edge cases (empty, full,
    and every block indicator).  The hypothesis is often vacuous for
    components cutting strictly through a block; the note records how many
    samples actually engaged it.
    """
    n = expectation.n
    rng = random.Random(seed)
    pool = [E.Component([0] * n), E.unit(n)]
    pool.extend(expectation.block_indicator(bi) for bi in range(len(expectation.blocks)))
    for _ in range(trials):
        pool.append(E.Component([rng.randint(0, 1) for _ in range(n)]))
    engaged = 0
    witness = None
    for p in pool:
        image = expectation.apply(p)
        if E.is_component(image):
            engaged += 1
            if image != p:
                witness = p
                break
    return E.CheckReport((E.Check("component-projection", witness is None, witness,
                                  note=f"{engaged} of {len(pool)} sampled components had 0/1 averages"),))


@given(systems(), st.integers(0, 10**6))
@settings(max_examples=50)
def test_component_projection_law(system, seed):
    assert check_component_projection(system.expectation, trials=50, seed=seed).passed


def test_component_projection_engages_on_full_blocks():
    op = E.ConditionalExpectation([F(1, 4), F(1, 4), F(1, 2)], [[0, 1], [2]])
    p = op.block_indicator(0)
    assert op.apply(p) == p
    inside = E.Component([1, 0, 0])  # cuts strictly through the first block
    assert not E.is_component(op.apply(inside))


# --- random generator --------------------------------------------------------------------

def test_generator_is_deterministic():
    a = E.random_system(7, 3, seed=123)
    b = E.random_system(7, 3, seed=123)
    assert a.expectation == b.expectation and a.koopman == b.koopman


def test_generator_all_singleton_blocks_forces_identity():
    system = E.random_system(6, 6, seed=5)
    assert system.koopman.sigma == tuple(range(6))
    assert system.is_valid


def test_generator_validates_for_many_seeds():
    for seed in range(300):
        n = seed % 9 + 1
        blocks = seed % min(4, n) + 1
        system = E.random_system(n, blocks, seed)
        assert system.is_valid, (seed, system.report.failures)


def test_generator_rejects_bad_shape():
    with pytest.raises(ValueError):
        E.random_system(3, 4, seed=0)
    with pytest.raises(ValueError):
        E.random_system(0, 1, seed=0)


def test_single_block_full_cycle_is_ergodic():
    system = E.CepsSystem.from_parts([F(1, 5)] * 5, [[0, 1, 2, 3, 4]], [1, 2, 3, 4, 0])
    assert system.is_valid
    assert E.oracle_ergodic(system)


# --- JSON round trip and schema errors -------------------------------------------------------

def test_round_trip(tmp_path):
    system = E.random_system(6, 2, seed=99)
    path = tmp_path / "system.json"
    E.save_system(system, path)
    loaded = E.load_system(path)
    assert loaded.expectation == system.expectation
    assert loaded.koopman == system.koopman
    assert json.loads(path.read_text()) == E.system_to_dict(system)


def good_doc():
    return {
        "n": 3,
        "weights": [{"num": 1, "den": 3}] * 3,
        "partition": [[0, 1, 2]],
        "sigma": [1, 2, 0],
    }


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda d: d.pop("sigma"), "$.sigma"),
        (lambda d: d.update(n=0), "$.n"),
        (lambda d: d.update(extra=1), "$"),
        (lambda d: d["weights"].__setitem__(1, 0.5), "$.weights[1]"),
        (lambda d: d["weights"].__setitem__(0, {"num": 1}), "$.weights[0].den"),
        (lambda d: d["weights"].__setitem__(0, {"num": 1, "den": 0}), "$.weights[0].den"),
        (lambda d: d.update(weights=[{"num": 1, "den": 3}] * 2), "$.weights"),
        (lambda d: d["partition"].__setitem__(0, [0, 1]), "$.partition"),
        (lambda d: d["partition"].append([2]), "$.partition[1][0]"),
        (lambda d: d.update(sigma=[1, 2, 5]), "$.sigma[2]"),
        (lambda d: d.update(sigma=[1, 2]), "$.sigma"),
    ],
)
def test_schema_errors_carry_paths(mutate, path):
    doc = good_doc()
    mutate(doc)
    with pytest.raises(E.SchemaError) as err:
        E.system_from_dict(doc)
    assert err.value.path == path


def test_plain_integer_rationals_accepted():
    doc = {"n": 1, "weights": [1], "partition": [[0]], "sigma": [0]}
    assert E.system_from_dict(doc).is_valid


def test_nonpositive_weight_rejected_at_schema():
    doc = good_doc()
    doc["weights"] = [{"num": 0, "den": 1}, {"num": 1, "den": 2}, {"num": 1, "den": 2}]
    with pytest.raises(E.SchemaError, match="strictly positive"):
        E.system_from_dict(doc)


def test_invalid_but_well_formed_system_loads(tmp_path):
    doc = good_doc()
    doc["sigma"] = [0, 0, 1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    system = E.load_system(path)
    assert not system.is_valid
    with pytest.raises(E.InvalidSystemError):
        system.require_valid()


def test_deciders_refuse_invalid_systems():
    system = block_crossing_system()
    with pytest.raises(E.InvalidSystemError):
        E.decide_definition(system)
    with pytest.raises(E.InvalidSystemError):
        E.full_report(system)


def test_invalid_system_has_no_split_cycle():
    with pytest.raises(E.InvalidSystemError):
        block_crossing_system().split_cycle
