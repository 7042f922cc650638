"""Norm geometry on R^n, inflation certificates for linear maps, explicit
piecewise-affine 1-Lipschitz approximators, and a measurement harness for
the resulting measure-preservation and measure-collapse experiments."""

from .errors import DimensionMismatch, InflateLabError, NumericalFailure, PreconditionError
from .geometry import GridSubset
from .normed_space import (ExtremalReport, Norm, analyze_extremal, ball_volume,
                           ball_volume_report, euclidean, l1, linf, lp, norm_eval,
                           norm_from_json, norm_to_json, polytopal, transformed,
                           vol_of_norm)
from .linear_analysis import (InflationCertificate, LinearMap, OperatorNormReport,
                              PairProbeReport, VerificationReport, certificate_from_json,
                              certificate_to_json, euclidean_inflation, inflating_pair_probe,
                              inflation_search, linear_map, map_from_json, map_to_json,
                              operator_norm, operator_norm_report, sign_permutations,
                              verify_certificate, vol, vol_matrix)
from .maximal_volume import MvResult, UscProbeReport, column_augment, max_volume, usc_probe
from .constructions import (CoordinateCurve, GluedMap, InflateReport, PatchSpec,
                            PiecewiseAffineMap, balls_epsilon, glue_patches, inflate_affine,
                            inflate_on_set, lsc_margin, pa_from_axis_slopes, zigzag_curve)
from .measure_lab import (MeasureReport, NegativeConfig, PositiveConfig,
                          boxcount_image_measure, coverage_check, estimate_lipschitz,
                          jacobian_integral, map_from_descriptor, records_to_csv,
                          run_negative_experiment, run_positive_experiment,
                          superlevel_fraction)
from .cli import ExperimentConfig, run

__all__ = [name for name in dir() if not name.startswith("_")]
