"""Connective Morava K-theory of the Eilenberg-MacLane space K(Z_p, 2).

The package computes k(n)^*(K(Z_p, 2)) and its homology variant two ways:
a closed-form Adams spectral sequence run driven by an integer differential
schedule, and a brute-force tower computation on the E2 lattice.  The two
routes are kept independent so that one can verify the other.
"""

__version__ = "0.1.0"

from .graded_algebra import (
    Factor,
    Generator,
    PoincareSeries,
    TensorExpression,
)
from .answer import (
    AnswerModule,
    TorsionFamily,
    bockstein_check,
    closed_form,
    localize,
    poincare_answer,
    to_page,
)
from .numerology import divisibility_check, degree_w, identity_suite, q, r, rprime
from .ss_engine import (
    Differential,
    Page,
    TowerSummand,
    advisory_scan,
    e2_closed_form,
    oracle_match,
    pairing_check,
    run_bruteforce,
    run_closed_form,
    schedule,
    uct_transport,
)
