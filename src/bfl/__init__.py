"""bfl — exact finite-group computations at desk scale.

Conjugacy-class scans (commutator closure, p-group pair checks),
character-table structure constants, and wreath-section detection in
p-groups, over permutation, matrix and semilinear representations.
"""

__version__ = "0.1.0"

from .fields import GF, FieldSpec
from .elements import (Permutation, SquareMatrix, SemilinearElement,
                       compose, inverse, conjugate, commutator,
                       element_order, identity_like, Overflow)
from .groups import Group, closure_enumerate, matrix_action
from .classes import (ConjClass, NormalSet, SelectorError, enumerate_classes,
                      class_of, select_class)
from .catalog import (GroupBlueprint, parse_blueprint, construct,
                      special_element, order_formula)
from .genfile import ParseError, parse_generator_file
from .cyclotomic import Cyclotomic
from .report import Verdict, ScanPlan, emit_report, exit_code
from .chartab import (CharacterTable, TableError, parse_table, load_table,
                      class_constants, class_mult_count, product_support,
                      bf_pair_table)
from .charcompute import build_table
from .smallgroup import SmallGroup, is_p_group, normal_subgroups, quotient
from .wreath import (WreathModel, build_wreath, iso_to_wreath,
                     wreath_section_detect, reconstruct_section, SectionVerdict)
from .modrep import (ModuleAction, representation, fixed_dim, commutator_dim,
                     is_irreducible, commutator_profile, lemma21_check,
                     cor22_check)
from .battery import standard_battery
from .verify import (bf_pair_direct, wreath_free_pair_check,
                     commutator_closed_check, cc_inverse_check,
                     l2q_trace_identity, l2q_laurent_profile, l2q_laurent_scan,
                     inversion_identity_scan, symmetric_bf_scan,
                     reflections_o3_scan, sl2n3_scan, replay_pair_witness,
                     replay_commutator_witness, replay_product_witness)
