"""ntlab: a cross-checked verification laboratory for fourth-power twisted
Kloosterman moments.

Every quantity of interest is computed by at least two independent routes
(certified fixed-point sums, exact character sums, Hurwitz class-number
windows, p-adic Gauss sums) and the routes are compared exactly over prime
sweeps. See the README for the findings the lab surfaced.
"""

from .classnumber import (HurwitzTable, build_hurwitz_table, class_number_h,
                          cohen_coefficient, eichler_lhs, eichler_rhs,
                          hurwitz_hfull, hurwitz_hstar12)
from .ecurve import (CurveClass, ap_legendre, ap_table, curve_census,
                     curves_isomorphic, j_invariant, l_set, l_set_sizes,
                     short_weierstrass, torsion_class, twist_relation_misses)
from .ffield import FieldCtx, cyclic_convolve, make_field_ctx
from .identities import (counting_lemma_check, cp_count_brute,
                         cp_count_formula, s4_direct, s4_via_ap,
                         s4_via_classnumbers, schoof_count_check,
                         sheaf_via_s4, torsion_census_check, window8,
                         window16)
from .kloosterman import (CertifiedReal, PrecisionError, TrigTable,
                          angle_histogram, closed_forms, kloosterman_sum,
                          kloosterman_sum_via_quadric, kloosterman_table,
                          round_fixed, semicircle_bins, semicircle_chisq,
                          sheaf_moment, symmetric_moment_rhs, trig_table,
                          twisted_moment, untwisted_moment)
from .padic import (NGN_FAMILIES, PadicCtx, gamma_p, gamma_p_direct,
                    gamma_product_checks, gauss_product, gk_I_integer,
                    gk_consistency_check, greene_2f1_fraction, greene_check,
                    hasse_davenport_check, jacobi_sum, make_padic_ctx,
                    ngn_evaluate, prop64_check, prop65_check, prop66_check,
                    sweep_trend_ok)
from .records import VerificationRecord, merge_records, records_to_csv

__version__ = "0.1.0"
