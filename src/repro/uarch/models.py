"""Convenience entry points for the four evaluated models.

The :class:`~repro.uarch.pipeline.Simulator` is fully driven by
:class:`~repro.uarch.params.CoreParams`; this module provides the canonical
per-model configurations of paper Section V and a one-call runner.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..isa import Program
from ..kernel import PackedTrace, run_program
from .params import (CoreParams, ModelKind, _check_override_names,
                     model_params)
from .pipeline import Simulator
from .stats import SimStats

ALL_MODELS = (ModelKind.BASELINE, ModelKind.NOSQ, ModelKind.DMDP,
              ModelKind.PERFECT)


def run_model(program: Program, trace: PackedTrace, model: ModelKind,
              params: Optional[CoreParams] = None, **overrides) -> SimStats:
    """Simulate ``trace`` under one store-load communication model.

    ``params`` supplies a base configuration (its ``model`` and confidence
    policy are overridden to the canonical ones for ``model``); keyword
    overrides are applied on top; an unknown override name raises
    :class:`~repro.uarch.params.ConfigError` either way.
    """
    if params is None:
        params = model_params(model, **overrides)
    else:
        params = params.with_model(model)
        if overrides:
            import dataclasses
            _check_override_names(overrides)
            params = dataclasses.replace(params, **overrides)
    return Simulator(program, trace, params).run()


def run_all_models(program: Program,
                   trace: Optional[PackedTrace] = None,
                   models=ALL_MODELS,
                   **overrides) -> Dict[ModelKind, SimStats]:
    """Simulate the same trace under every requested model."""
    if trace is None:
        trace = run_program(program)
    return {model: run_model(program, trace, model, **overrides)
            for model in models}
