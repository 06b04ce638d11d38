"""Welded-link invariants and generalized virtualization moves."""

from .diagram import (Diagram, DiagramError, ParseError, Passage,
                      canonical_key, closure, linking_matrix, parse,
                      random_diagram, same_diagram, serialize)
from .moves import (MoveKind, MoveSite, apply, count_sites, find_sites,
                    make_kind, parse_kinds, replay, scramble, search_path)
from .algebra import (CyclicLattice, Laurent, f_n, format_poly, hnf,
                      ideal_mod, normalize_units, parse_poly, poly_gcd,
                      snf)
from .invariants import (FiniteGroupTable, GroupPresentation, abelianization,
                         alexander, coloring_count, core_group, hom_count,
                         welded_group)
from .arrows import (WArrowPresentation, apply_arrow_move, build_H,
                     build_Hbar, find_arrow_sites, make_arrow_kind, stack,
                     surgery, to_arrows, trivial_string_link)
from .classify import (EquivalenceVerdict, ObstructionCertificate, decide_vn,
                       decide_vn_uc, example_names, multiplex, named,
                       normalize_vn, normalize_vn_uc, obstruct_vn,
                       parallel_residues, twist_residues)

__version__ = "0.1.0"
