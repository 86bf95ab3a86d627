"""Utilitarian welfare analysis of choice-restricting policies for
boundedly rational populations.

The package evaluates policies that restrict, mandate, or nudge the options
of a heterogeneous population whose members may fail to pick their best
option: it computes choice probabilities under several behavior models,
population welfare and regret, optimal choice sets by exhaustive search,
welfare curves and their crossings along a rationality scale, and the value
of decentralizing a binary treatment decision to imperfectly informed
agents.

The names in ``__all__`` resolve on first use: ``import choicewelfare``
imports no submodule, and looking a name up imports the module that defines
it, so code that never touches the treatment layer never loads it.
"""

import importlib

# Each export and the module that defines it; a module is imported the first
# time one of its names is looked up here (PEP 562).
_EXPORTS = {
    "_kernels": ("warm_up",),
    "document": (
        "PopulationSection",
        "ScenarioDocument",
        "ScenarioError",
        "bundled_scenario_text",
        "document_to_json_dict",
        "load_bundled_scenario",
        "parse_scenario",
        "parse_scenario_text",
        "serialize_scenario",
    ),
    "models": (
        "AlphaRational",
        "ChoiceModel",
        "ChoiceProbabilities",
        "DefaultNudge",
        "ErrorSpec",
        "GumbelIID",
        "IndependentTable",
        "Logit",
        "MCConfig",
        "NormalIID",
        "RandomUtilityMC",
        "RationalMax",
        "UniformBoundedIID",
        "binary_scaled_choice_prob",
        "choice_probabilities",
        "sample_errors",
    ),
    "scenario": (
        "ActionSet",
        "HotellingScenario",
        "Population",
        "UtilityType",
        "build_population",
        "hotelling_population",
    ),
    "search": (
        "Crossing",
        "OptimizeResult",
        "RefinementError",
        "SweepConfig",
        "SweepGrid",
        "SweepResult",
        "UtilitySpreadError",
        "enumerate_choice_sets",
        "find_crossings",
        "optimize_choice_set",
        "sweep_logit",
    ),
    "treatment": (
        "GUIDELINE_RISK_THRESHOLD",
        "TREATMENT_A",
        "TREATMENT_B",
        "BeliefModel",
        "BetaBelief",
        "CovariateCell",
        "DecentralizedOutcome",
        "EmpiricalBelief",
        "InformationValue",
        "MandateOutcome",
        "MixtureBelief",
        "OutcomeUtilities",
        "PointMassBelief",
        "TreatmentReport",
        "TreatmentScenario",
        "UniformBelief",
        "XCell",
        "XReport",
        "aggregate_outcome_prob",
        "belief_choice_prob",
        "belief_q_map",
        "bounded_rational_welfare_x",
        "build_report",
        "compare_policies_x",
        "expected_outcome_utility",
        "optimal_decentralized_x",
        "optimal_mandate_x",
        "subjective_choice",
        "threshold_probability",
        "value_of_information",
    ),
    "welfare": (
        "LogitSensitivities",
        "MandateResult",
        "ParetoVerdict",
        "PerTypeEvaluation",
        "PolicyEvaluation",
        "alpha_welfare_closed_form",
        "bounded_error_welfare_bound",
        "expected_utilities",
        "idealized_optimum",
        "logit_sensitivities",
        "mean_utility_bound",
        "optimal_mandate",
        "policy_welfare",
        "stochastic_pareto_compare_binary",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        # An unknown name raises AttributeError, so ``from choicewelfare import
        # cli`` goes on to import the submodule.
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
