"""Exact verification of Hull-Strominger and harmonic-metric identities
on invariant nilmanifold backgrounds."""

from .scalars import Scalar
from .cealg import (NilmanifoldModel, InvariantForm, InvariantVector,
                    build_iwasawa_model)
from .hermitian import HermitianStructure
from .bundles import (LineBundleTriple, curvature_from_triple, alpha_solve,
                      SystemParams, hs_residuals, DegenerateCoupling)
from .algebroid import (QOperator, connection_DG, he_residual_G,
                        dolbeault_Q, extension_class_gamma, subbundle_report)
from .harmonic import (CompatibleMetricH, moment_residuals, moment_I,
                       moment_J, harmonic_residual, harmonic_criteria,
                       higgs_dbar_entry, higgs_obstruction)
from .iwasawa import (build_iwasawa, TauDeformation, PicardPoint,
                      FamilyConfig, SolutionCandidate, make_family,
                      VerificationReport, verify_family, iter_sweep)

__version__ = "0.1.0"
