import ast
import random
import sys
import traceback
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import settings

from oracles import is_primitive, is_zero, star_subdivision
from torcrep.fans import validate_fan
from torcrep.groups import close_group
from torcrep.lattice import LatticePoint
from torcrep.resolve import resolve

# every @given test draws the same examples on every run, so a run of the
# suite does not depend on its seed; a test's own @settings may add to this
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

# the worked-example script owns the hand-entered non-star model
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from run_worked_examples import nonstar_order6_fan  # noqa: E402

# the Hilbert-basis resolution of 7:(1,1,2,3); its star at the first point
# weights the rays by ages 1 and 2
Z7_HILBERT_SEQUENCE = tuple(
    LatticePoint(c, 7) for c in [(1, 1, 2, 3), (3, 3, 6, 2), (4, 4, 1, 5), (5, 5, 3, 1)]
)


@pytest.fixture(scope="session")
def z6():
    return close_group([LatticePoint((1, 2, 3), 6)])


@pytest.fixture(scope="session")
def z5():
    return close_group([LatticePoint((1, 2, 2), 5)])


@pytest.fixture(scope="session")
def z7():
    return close_group([LatticePoint((1, 1, 2, 3), 7)])


@pytest.fixture(scope="session")
def z2():
    return close_group([LatticePoint((1, 1, 1, 1), 2)])


@pytest.fixture(scope="session")
def trivial3():
    return close_group([], n=3)


@pytest.fixture(scope="session")
def z6_result(z6):
    return resolve(z6, list(z6.juniors))


@pytest.fixture(scope="session")
def z6_result_alt(z6):
    g1, g2, g3, g4 = z6.juniors
    return resolve(z6, [g4, g3, g1, g2])


@pytest.fixture(scope="session")
def z5_result(z5):
    return resolve(z5, list(z5.juniors))


@pytest.fixture(scope="session")
def z7_hilbert_result(z7):
    return resolve(z7, Z7_HILBERT_SEQUENCE)


@pytest.fixture(scope="session")
def z6_nonstar_fan(z6):
    """Hand-entered crepant model of the order-6 example (not a star fan)."""
    return nonstar_order6_fan(z6.lattice)


def raised_at(module, faults, call, exc_type):
    """The message of the ``exc_type`` that ``call()`` raises, and the ``(file, line)``
    that raised it, with each fault (name -> wrapper of the module's own) in place."""
    with pytest.MonkeyPatch.context() as mp:
        for name, fault in faults.items():
            mp.setattr(module, name, fault(getattr(module, name)))
        with pytest.raises(exc_type) as info:
            call()
    frame = traceback.extract_tb(info.tb)[-1]
    return str(info.value), (frame.filename, frame.lineno)


def assert_each_raise_reached(module, reached, exc_name=None):
    """Fail by ``file:line`` on each ``raise`` in the module's source (of ``exc_name``
    alone when given) that no case reached; ``reached`` holds each case's site."""
    path = module.__file__
    with open(path) as f:
        tree = ast.parse(f.read(), filename=path)
    sites = {(path, node.lineno) for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
             and exc_name in (None, getattr(node.exc.func, "id", None))}
    assert len(set(reached)) == len(reached)  # one case per site
    assert [f"{file}:{line}" for file, line in sorted(sites - set(reached))] == []
    assert set(reached) <= sites


@pytest.fixture()
def rng():
    return random.Random(20240811)


def random_cyclic_group(rng, n, rmax=12):
    r = rng.randrange(1, rmax + 1)
    coords = [rng.randrange(r) for _ in range(n - 1)]
    coords.append((-sum(coords)) % r)
    return close_group([LatticePoint(tuple(coords), r)], n)


@st.composite
def small_groups(draw):
    """Groups in n = 2..5 with one to three generators of small order."""
    n = draw(st.integers(2, 5))
    mmax = {2: 16, 3: 9, 4: 6, 5: 4}[n]  # the box-walk oracle is slow on big groups
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        m = draw(st.integers(2, mmax))
        coords = draw(st.lists(st.integers(0, m - 1), min_size=n - 1, max_size=n - 1))
        gens.append(LatticePoint((*coords, -sum(coords) % m), m))
    return close_group(gens, n)


@st.composite
def smooth_fans(draw):
    """A group in n = 2, 3 and a smooth fan refining its orthant.

    All juniors are folded in a random order, which in n <= 3 gives a
    smooth crepant fan, then up to two blow-ups along the sum of the rays
    of a face keep the fan smooth and add rays of age >= 2, whose
    certificates fail.
    """
    n = draw(st.integers(2, 3))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        m = draw(st.integers(2, 7))
        coords = draw(st.lists(st.integers(0, m - 1), min_size=n - 1, max_size=n - 1))
        gens.append(LatticePoint((*coords, -sum(coords) % m), m))
    group = close_group(gens, n)
    fan = resolve(group, draw(st.permutations(group.juniors))).fan
    for _ in range(draw(st.integers(0, 2))):
        cone = draw(st.sampled_from(fan.maximal_cones))
        face = draw(st.lists(st.sampled_from(cone.rays), min_size=2, unique=True))
        mu = LatticePoint(tuple(map(sum, zip(*(r.coords for r in face)))), group.r)
        fan = star_subdivision(fan, mu)
    return group, fan


@st.composite
def partial_folds(draw):
    """A prefix of a junior sequence folded from the orthant, in n = 2..5.

    The new rays add free rank while the cones left unsubdivided keep
    quotient singularities, so torsion and free coordinates mix.
    """
    group = draw(small_groups())
    seq = draw(st.permutations(group.juniors))
    return resolve(group, seq[:draw(st.integers(0, len(seq)))]).fan


@st.composite
def validated_fans(draw):
    """A group in n = 3, 4 and a fan refining its orthant that passes ``validate_fan``.

    Up to six primitive group elements, junior or not, are folded from the
    orthant in a random order, so smooth and singular cones mix.
    """
    n = draw(st.integers(3, 4))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        m = draw(st.integers(2, {3: 9, 4: 5}[n]))
        coords = draw(st.lists(st.integers(0, m - 1), min_size=n - 1, max_size=n - 1))
        gens.append(LatticePoint((*coords, -sum(coords) % m), m))
    group = close_group(gens, n)
    points = [p for p in group.elements
              if not is_zero(p) and is_primitive(group.lattice, p)]
    seq = draw(st.lists(st.sampled_from(points), unique=True, max_size=6)) if points else []
    fan = resolve(group, seq).fan
    validate_fan(fan)
    return group, fan


@st.composite
def crepant3_resolutions(draw):
    """A group in n = 3 with every junior folded in a random order.

    In n = 3 every order gives a smooth crepant fan.
    """
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        m = draw(st.integers(2, 12))
        coords = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2))
        gens.append(LatticePoint((*coords, -sum(coords) % m), m))
    group = close_group(gens, 3)
    return group, resolve(group, draw(st.permutations(group.juniors))).fan
