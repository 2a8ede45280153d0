"""Exact arithmetic for equivariant line bundles on two-pointed orbifold curve chains.

Modules:
  foundation  exact rationals and phased scalars: combinations of e^{i*pi*r}
  curves      twisted components P(a,b)/mu_l and nodal chains
  bundles     equivariant line bundles, ages, canonical bundle
  cohomology  exact h0/h1 on components and chains
  convexity   weak semi-positivity / convexity / concavity decisions
  sectors     sector weight calculus, rank formula, duality signs
  wps         weighted projective state spaces, pairings, delta transform
  series      Novikov series, fundamental-solution operators, duality identity
  oracles     independent elimination, elementwise and brute-force routes for the checks
  suites      exhaustive and randomized verification suites
  cli         `orbicurve` command-line front end
"""

from .foundation import PhasedScalar, canonical_split
from .curves import CurveChain, MarkedPoint, TwistedComponent, isotropy_order, present
from .bundles import (
    ChainBundle,
    EqLineBundle,
    SplitBundle,
    age_at,
    canonical_bundle,
    dual,
    tensor,
    twist_marked,
)
from .cohomology import CohomologyReport, h0_component, h1_component, h_chain, h_twisted, riemann_roch_check
from .convexity import (
    convexity_verdict,
    is_weakly_concave_on_dual,
    is_weakly_convex_on,
    is_weakly_semipositive,
    log_canonical_certificate,
)
from .sectors import SectorAction, age, age_sum_check, inverse_sector, rank_formula, sign_cycle, sign_invariant
from .wps import (
    WPSModel,
    integrate,
    pairing_gram,
    verify_delta_iso_dims,
    verify_pairing_comparison,
)
from .series import (
    EffClass,
    InvariantTable,
    LOperator,
    build_L,
    verify_qsd_operator_identity,
)

__version__ = "0.1.0"
