"""Exact hermitian forms over the integer Laurent ring, their transfers to
integer lattices over cyclic group rings, and characteristic-vector
invariants: defect, minimal vectors, standardness certificates, and ADE root
systems.  All arithmetic is exact and nothing is floated: the lattice core
(LLL, enumeration, eliminations) runs on integers only, and Fractions appear
only in the rational checks on forms."""

from hermlat.charvec import (
    CharReport,
    char_rep,
    char_witness,
    defect_certificate_check,
    is_characteristic,
    is_standard,
    min_characteristic,
    specific_criterion,
    wa_norm,
    witness_vector,
)
from hermlat.forms import (
    CyclicForm,
    HermitianForm,
    aug_form,
    b_sequence,
    build_form,
    build_form_power,
    flatten_vector,
    form_det,
    rational_congruence_check,
    reduce_form,
    sesq_eval,
    substitute_power,
    transfer,
    transfer_determinant,
)
from hermlat.lattice import (
    BudgetExceeded,
    EnumerationResult,
    GramMatrix,
    direct_sum,
    enumerate_coset,
    enumerate_short,
    inner,
    lll_reduce,
    norm,
    validate,
)
from hermlat.ring import (
    CyclicElement,
    LaurentPoly,
    format_laurent,
    parse_laurent,
    sym_power,
)
from hermlat.roots import (
    RootSystemReport,
    catalog_gram,
    check_dynkin,
    dynkin_edges,
    gamma_gram,
    identify,
    identity_gram,
    root_system,
)

__version__ = "0.1.0"
