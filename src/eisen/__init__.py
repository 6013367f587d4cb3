"""Arithmetic of the hexagonal lattice Z[w], w = e^{i pi/3}: lattice
points on circles, exponential sums, prime-angle statistics, theta and
L-functions, and exact circle discrepancy.

The namespace is lazy (PEP 562): a public name or submodule is imported
on first use, so the exact arithmetic never loads numpy."""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "core": "EisensteinInt OMEGA ONE UNITS ZERO canonical_associate eis_arg eis_conj"
    " eis_mul eis_norm in_fundamental_sector",
    "factor": "CirclePointSet EisFactorization PrimeClass PrimeSplitRecord circle_points"
    " classify_prime factor_eisenstein factor_int is_prime prime_record primes_up_to r_q"
    " split_prime_generator",
    "expsum": "AverageDecayReport ExpSumValue avg_exp_sum circle_sums exp_sum exp_sum_product f_A",
    "angles": "BadCircle CharacterSumValue SectorQuery bad_circle chi_prime_sum"
    " prime_ideals_up_to sector_count theta_equidistribution_stat",
    "analytic": "complex_gamma functional_eq_residual l_dirichlet li theta"
    " theta_transform_residual xi_integral",
    "discrepancy": "GAMMA_MAX DiscrepancyResult SurveyReport b_q discrepancy_exact"
    " discrepancy_survey erdos_turan_bound",
}
_SUBMODULES = (*_EXPORTS, "cli")
_OWNER = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
