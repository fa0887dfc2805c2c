"""substdyn: analysis of one-dimensional substitution subshifts and tiling
spaces, with particular support for non-primitive substitutions.

The main entry points are:

- :class:`Substitution` and :func:`parse_substitution` for rules;
- :class:`LanguageTable` for admitted/legal languages;
- :func:`decide_tameness`, :func:`find_seed`, :func:`is_minimal`;
- :func:`primitivize` for the return-word rewriting;
- :func:`collar` and :func:`inverse_limit_presentation` for collared
  Anderson-Putnam complexes;
- :func:`enumerate_cis` and :func:`diagram_compare` for lattices of closed
  invariant subspaces and their cohomology diagrams.
"""

from .core import PointedWord, Substitution, Word, parse_substitution, load_substitution
from .language import LanguageTable, periodic_point_search
from .classify import (LetterClassification, MinimalityResult, SeedResult,
                       TamenessReport, WildWitness, classify_letters,
                       decide_tameness, find_seed, is_minimal,
                       wild_periodic_word)
from .primitivize import (ConjugateSubstitution, DerivedSubstitution,
                          PrimitivizationResult, ReturnWordSystem, build_psi,
                          build_theta, primitivize, return_words,
                          verify_conjugacy)
from .collar import (CollaredLetter, CollaredSubstitution,
                     border_forcing_level, collar)
from .apcomplex import (APComplex, CellularMap, DirectLimit, H1Presentation,
                        InverseLimitPresentation, build_complex,
                        complex_to_dot, direct_limit, eventual_rank,
                        h1_presentation, induced_map,
                        inverse_limit_presentation)
from .cis import (CISLattice, CISNode, CanonicalizeContext, DiagramComparison,
                  diagram_compare, enumerate_cis, extend_substitution,
                  lattice_to_dot)
from . import corpus, errors, intlin

__all__ = [
    "APComplex", "CISLattice", "CISNode", "CanonicalizeContext", "CellularMap",
    "CollaredLetter", "CollaredSubstitution", "ConjugateSubstitution",
    "DerivedSubstitution", "DiagramComparison", "DirectLimit",
    "H1Presentation", "InverseLimitPresentation", "LanguageTable",
    "LetterClassification", "MinimalityResult", "PointedWord",
    "PrimitivizationResult", "ReturnWordSystem", "SeedResult", "Substitution",
    "TamenessReport", "WildWitness", "Word", "border_forcing_level",
    "build_complex", "build_psi", "build_theta", "classify_letters",
    "collar", "complex_to_dot", "corpus", "decide_tameness",
    "diagram_compare", "direct_limit", "enumerate_cis", "errors",
    "eventual_rank", "extend_substitution", "find_seed",
    "h1_presentation", "induced_map", "intlin",
    "inverse_limit_presentation", "is_minimal",
    "lattice_to_dot", "load_substitution", "parse_substitution",
    "periodic_point_search", "primitivize", "return_words",
    "verify_conjugacy", "wild_periodic_word",
]

__version__ = "0.1.0"
