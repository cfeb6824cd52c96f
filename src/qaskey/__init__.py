"""Exact verification of structure relations, lowering/raising
relations, and skew-symmetric operator identities for five orthogonal
polynomial families in the q-Askey scheme, plus exact harnesses for
the two limit transitions connecting them."""

from .laurent import (LaurentPoly, NonzeroRemainder, SymLaurentPoly, XPoly,
                      divide_exact, sym_to_x, x_to_sym)
from .qcalc import (central_q_derivative, divided_q_difference,
                    q_derivative, q_pochhammer)
from .families import (FamilyData, FamilySpec, InadmissibleParameters,
                       aw_spec, bigq_spec, build_family, cqjacobi_spec,
                       cqultra_spec, jacobi_spec, sample_specs)
from .operators import PolyOperator, commutator, d_from_l, op_x
from .inner_product import inner
from .relations import VerificationReport

__version__ = "0.1.0"
