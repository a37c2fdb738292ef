"""Exact hermitian forms over the integer Laurent ring, their transfers to
integer lattices over cyclic group rings, and characteristic-vector
invariants: defect, minimal vectors, standardness certificates, and ADE root
systems.  All arithmetic is exact and runs on Python integers only, from the
ring elements and forms to the lattice core (LLL, enumeration,
eliminations): nothing is floated and no rationals appear."""

from hermlat.charvec import (
    CharReport,
    DefectReport,
    char_rep,
    characteristic_defect,
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
    transfer,
    transfer_determinant,
    transfer_image,
)
from hermlat.lattice import (
    BudgetExceeded,
    EnumerationResult,
    GramMatrix,
    direct_sum,
    enumerate_coset,
    enumerate_short,
    inner,
    norm,
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
    check_dynkin,
    dynkin_edges,
    gamma_gram,
    identify,
    identity_gram,
    root_system,
)

__version__ = "0.1.0"
