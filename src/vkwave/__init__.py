"""Verification toolkit for nonlinear plate-bending conservation laws.

The package evaluates exact solution families of the coupled deflection /
stress-function plate equations, the fourteen conservation-law rows they
admit, pointwise jump conditions on moving discontinuity fronts, and
regional balance integrals, plus a scenario-driven command line runner.

``import vkwave`` runs no submodule: each public name below is looked up in
its submodule on first use (PEP 562), so a balance or jump computation never
loads the scenario reader, the report or PyYAML.  A resolved name is not
stored in the package namespace; every ``vkwave.<name>`` reads the
submodule's current attribute.
"""

import importlib

#: Each submodule and the public names it exports, in ``__all__`` order.
_EXPORTS = {
    "version": ("__version__",),
    "errors": (
        "VkwaveError", "ValidationError", "SingularFrontError", "FrontProximityError",
        "NotOnFrontError", "SideRequiredError", "NonAdmissibleRecordError", "ScenarioError",
    ),
    "params": ("PlateParams", "make_plate_params"),
    "indexing": ("JET_SIZE", "MULTI_INDICES", "idx"),
    "jets": ("FieldJet",),
    "tensors": (
        "Vector2", "SymTensor2", "membrane_stress", "moment_tensor", "shear_force",
        "membrane_strain", "bending_tensor", "g_tensor", "f_vector", "strain_energy_density",
        "kinetic_energy_density", "lagrangian_density",
    ),
    "wavefront": (
        "Front", "LineFront", "CircleFront", "FrontGeometry", "front_geometry", "second_jumps",
        "third_jumps", "required_third_amplitude",
    ),
    "solutions": (
        "Side", "InvariantSolution", "invariant_solution", "PolynomialField", "polynomial_field",
        "PiecewiseField", "AccelerationWave", "acceleration_wave", "pde_residual",
        "pde_term_scales",
    ),
    "fdtools": ("central_difference", "richardson", "fd_jet_oracle", "field_value_fn"),
    "conservation": (
        "LawId", "LAWS", "law", "DensityFlux", "density_flux", "DivergenceEstimate",
        "conservation_divergence", "conservation_residual",
    ),
    "jumps": (
        "JumpRecord", "WaveVerdict", "extract_jumps", "check_acceleration_wave",
        "dynamic_jump_residuals", "dynamic_jump_scales", "balance_jump_residual",
        "balance_jump_scale", "closed_form_jump_residual", "amplitude_relation_residuals",
        "amplitude_relation_scales",
    ),
    "balance": (
        "Region", "BalanceReport", "density_integral", "boundary_flux_integral",
        "balance_residual", "fundamental_balances", "front_segment_jump_integral",
    ),
    "scenario": (
        "Scenario", "CheckSpec", "FieldSpec", "FrontSpec", "Tolerances", "load_scenario",
        "scenario_from_dict", "scenario_to_dict", "build_field", "build_front",
        "sample_front_point",
    ),
    "report": ("CheckResult", "Report", "run_scenario", "emit_report"),
}

_MODULE_OF = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(module), name)


def __dir__():
    return sorted({*globals(), *__all__})
