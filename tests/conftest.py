import pytest
from hypothesis import settings

from qaskey import families as fam

# Property tests draw the same examples on every run, write no example
# database, and have no per-example deadline (timings vary on shared hosts).
settings.register_profile("qaskey", derandomize=True, database=None, deadline=None)
settings.load_profile("qaskey")

ACCEPT_SEED = 20260810
N_MAX = 10          # identity checks run n = 1..10
BUILD_N = 11        # polynomials to degree 12, eigenvalues to index 12


@pytest.fixture(scope="session")
def grids():
    """20 admissible seeded parameter points per family, built once."""
    out = {}
    for family in fam.CLI_FAMILIES:
        specs = fam.sample_specs(family, 20, seed=ACCEPT_SEED, n_max=BUILD_N)
        out[family] = [fam.build_family(s, BUILD_N) for s in specs]
    return out


@pytest.fixture(scope="module")
def first_points():
    """The first sampled point of each family at seed 1, by family."""
    specs = [fam.sample_specs(f, 1, seed=1, n_max=8)[0] for f in fam.CLI_FAMILIES]
    return {s.family: fam.build_family(s, 8) for s in specs}
