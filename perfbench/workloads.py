"""The benchmark's workloads: one convergence-study ladder each.

Every workload is a `StudyConfig` ladder plus the properties its output
must have (see checks.py). Only `distorted-patch-2d` draws its inputs
from the seed; the other two families are deterministic, so their seed
changes nothing but the record of the run.
"""

import math

from polyvem import StudyConfig

SMALLEDGE = "smalledge-s2-2d"
DISTORTED = "distorted-patch-2d"
FACESPLIT = "facesplit-3d"


class Workload:
    """A study ladder and the output properties checked on it.

    energy: the closed-form Dirichlet energy that b.x must approach
    (sine cases only; None where b carries a boundary lift).
    patch: every error norm must stay at roundoff.
    rates: the study's own rate gate, report["passed"], must hold.
    decreasing: every error norm must fall from level to level.
    """

    def __init__(self, name, dim, k, stab, family, case, levels,
                 energy=None, patch=False, rates=False, decreasing=False):
        self.name = name
        self.dim = dim
        self.k = k
        self.stab = stab
        self.family = family
        self.case = case
        self.levels = list(levels)
        self.energy = energy
        self.patch = patch
        self.rates = rates
        self.decreasing = decreasing

    def config(self, out):
        """The StudyConfig of one full ladder, writing reports to out."""
        return StudyConfig(dim=self.dim, k=self.k, stab=self.stab,
                           family=self.family, case=self.case,
                           levels=list(self.levels), out=out)

    def setup_config(self, out):
        """A one-level, one-cell study of the same dim, k and family.

        smalledge(h2) is resolved at the first level of the ladder,
        because at n=1 its edge fraction 1/n^2 is outside (0, 1/2].
        """
        family = self.family
        if family == "smalledge(h2)":
            n = self.levels[0]
            family = f"smalledge({1.0 / (n * n)!r})"
        return StudyConfig(dim=self.dim, k=self.k, stab=self.stab,
                           family=family, case=self.case, levels=[1],
                           out=out)


def sine_energy(dim):
    """Integral of |grad u|^2 over the unit box for u = prod sin(pi x_d)."""
    return dim * math.pi ** 2 / 2 ** dim


def get(name, seed):
    """The workload called name, with its inputs drawn from seed."""
    if name == SMALLEDGE:
        # the paper's 2D regime: edge ratio 1/eps - 1 grows as n^2
        return Workload(name, 2, 3, "s2", "smalledge(h2)", "sine",
                        [4, 8, 16], energy=sine_energy(2), rates=True)
    if name == DISTORTED:
        # no two cells congruent; VEM reproduces the degree-k patch
        return Workload(name, 2, 2, None, f"distorted({int(seed)})",
                        "patch", [8, 16, 24], patch=True)
    if name == FACESPLIT:
        # octagonal faces; the ladder is preasymptotic for the rate gate
        return Workload(name, 3, 2, None, "facesplit(0.05)", "sine",
                        [2, 3], energy=sine_energy(3), decreasing=True)
    raise ValueError(f"unknown workload {name!r}")

