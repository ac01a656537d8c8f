"""Exact arithmetic on Eisenstein series quotients and their congruences mod primes."""

__version__ = "0.2.0"

from .series import TruncatedSeries, ModulusMismatchError, PrecisionError
from .eisenstein import (
    QuotientSpec,
    eisenstein_series,
    eisenstein_power_product,
    quotient_series,
    quotient_q_coefficient,
    quotient_q2_coefficient,
    lift_weight,
    replacement_lift,
)
from .filtration import (
    ModularFormModEll,
    IsobaricPolynomial,
    sturm,
    monomial_exponents,
    monomial_basis,
    represent,
    compute_a_tilde,
)
from .tate import (
    TateCycleProfile,
    CongruenceReport,
    tate_cycle,
    certified_residues,
    heuristic_simple_congruences,
    theta_vanishes,
    theta_zero_congruences_hold,
    theta_vanishing_prime_candidates,
)
from .scanner import (
    ScanResult,
    TableRow,
    ResultsCache,
    CounterexampleError,
    BERNDT_YEE_TABLE,
    theorem_bound,
    remark_bound,
    certificate_precision,
    profile_precision,
    scan_prime,
    verify_theorem,
    verify_table,
)
