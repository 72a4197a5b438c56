"""gftree: simulate size- and growth-structured binary-fission genealogies
and estimate the division rate nonparametrically, with deterministic
invariant-measure and PDE cross-checks."""

from .curves import CurveOnGrid
from .estimator import (CompactPolynomialKernel, DivisionRateEstimate,
                        EstimatorConfig, FixedBandwidth, FixedThreshold,
                        GaussianKernel, GridSpec, InvLogThreshold,
                        InvNThreshold, InvSqrtThreshold, ObservationSet,
                        PowerBandwidth, SmoothnessBandwidth, bandwidth,
                        estimate_division_rate, estimate_division_rate_pooled,
                        estimate_rows, kernel_density, threshold)
from .invariant import (DegenerateDenominator, DriftReport,
                        InvariantSolution, NoConvergence, PdeState,
                        QuadratureOverflow, TransitionEvaluator,
                        invariant_fixed_point, reconstruct_division_rate,
                        solve_conservative_pde, verify_drift)
from .model import (ClassParams, ClassReport, DiracGrowth, DivisionRate,
                    GaussianIncrementGrowth, GrowthBounds, GrowthKernel,
                    IndependentResampleGrowth, InitialDistribution, ModelSpec,
                    NonDivergentHazard, PointStart, PowerLawRate,
                    TabulatedRate, UniformIncrementGrowth, UniformStart,
                    check_class_membership,
                    contraction_coefficient, cumulative_hazard,
                    reference_class_params, reference_model,
                    sample_growth_rates_keyed, sample_lifetimes_keyed,
                    sample_lifetimes_rejection)
from .studies import (ConfidenceBand, ConvergenceStudy, EmptyAfterFiltering,
                      EmptyConditioningSet, ErrorSummary, IngestReport,
                      SchemaError, analyze_experimental, confidence_band,
                      ingest_lineage_csv, relative_error,
                      run_convergence_study)
from .trees import (BatteryResult, ForestTooLarge, GenealogyTree,
                    extract_observations, many_to_one_battery,
                    read_genealogy_csv, simulate_full_tree,
                    simulate_sparse_lineage, write_genealogy_csv)

__version__ = "0.1.0"
