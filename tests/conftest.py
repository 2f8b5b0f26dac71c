import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import orthomeasure.lattice as lattice_mod
from orthomeasure import automorphism_group, benzene, boolean, mo, subspace_lattice


def pytest_runtest_setup(item):
    """Every test starts with an empty load table, so no answer depends on
    the files an earlier test loaded."""
    lattice_mod._LOADED.clear()


@pytest.fixture(scope="session")
def family():
    """The built-in test family, keyed by a readable label."""
    members = {}
    for n in range(1, 6):
        members[f"boolean({n})"] = boolean(n)
    for n in range(1, 7):
        members[f"mo({n})"] = mo(n)
    members["benzene"] = benzene()
    members["subspaces(F_3^2)"] = subspace_lattice(3, 2, (1, 1))
    return members


@pytest.fixture(scope="session")
def aut_groups(family):
    """Full automorphism groups of the family, computed once per session."""
    return {name: automorphism_group(lat) for name, lat in family.items()}
