"""Round-trippable descriptors for strategies and characteristics.

Strategies carry closures (fields, membership oracles), so strategy
files hold small descriptor dictionaries instead; the characteristics
are rebuilt from their defining parameters.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import InputError
from .examples import (Example2Params, e1_characteristics, e2_characteristics)
from .pdmp import (ConstantTimeStrategy, FlowIntensityStrategy,
                   InitialStateTimeStrategy, MixedStoppingStrategy,
                   NeverStopStrategy, PdmpCharacteristics,
                   SplitThenFlowStrategy, StopNowStrategy)

__all__ = [
    "characteristics_from_params", "strategy_from_descriptor", "strategy_to_json", "strategy_from_json",
]


def characteristics_from_params(params: dict) -> PdmpCharacteristics:
    kind = params.get("kind")
    if kind == "example1":
        return e1_characteristics(float(params["r"]))
    if kind == "example2":
        h = params["h"]
        f = params["f"]
        return e2_characteristics(Example2Params(
            a=float(params["a"]), b=float(params["b"]), r=float(params["r"]),
            h0=float(h[0]), h1=float(h[1]), f0=float(f[0]), f1=float(f[1])))
    raise InputError(f"unknown characteristics kind {kind!r}")


def strategy_from_descriptor(desc: dict) -> MixedStoppingStrategy:
    case = desc.get("case")
    if case == "never":
        R = desc.get("R")
        p0 = desc.get("p0")
        return NeverStopStrategy(R=None if R is None else np.asarray(R),
                                 p0=None if p0 is None else np.asarray(p0))
    if case == "stop_now":
        return StopNowStrategy()
    if case == "constant_time":
        return ConstantTimeStrategy(float(desc["time"]))
    if case == "state_times":
        return InitialStateTimeStrategy(desc["times"])
    if case == "flow":
        char = characteristics_from_params(desc["characteristics"])
        # other keys, such as the mechanisation name older files carry, are ignored
        return FlowIntensityStrategy(char, np.asarray(desc["z"], dtype=float),
                                     horizon=desc.get("horizon"))
    if case == "split":
        char = characteristics_from_params(desc["characteristics"])
        return SplitThenFlowStrategy(char, np.asarray(desc["z"], dtype=float),
                                     np.asarray(desc["z_flow"], dtype=float),
                                     np.asarray(desc["z_stop"], dtype=float),
                                     float(desc["m"]), horizon=desc.get("horizon"))
    raise InputError(f"unknown strategy case {case!r}")


def strategy_to_json(strategy: MixedStoppingStrategy, value_claim: float | None = None,
                     point: dict | None = None) -> str:
    payload = {"strategy": strategy.descriptor()}
    if value_claim is not None:
        payload["value_claim"] = value_claim
    if point:
        payload["point"] = point
    return json.dumps(payload, indent=2, sort_keys=True)


def strategy_from_json(text: str):
    """Returns ``(strategy, value_claim_or_None)``; a malformed file is an :class:`InputError`."""
    try:
        payload = json.loads(text)
        if "strategy" not in payload:
            raise InputError("strategy JSON missing the 'strategy' field")
        claim = payload.get("value_claim")
        return (strategy_from_descriptor(payload["strategy"]),
                None if claim is None else float(claim))
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:  # incl. JSONDecodeError
        raise InputError(f"malformed strategy JSON: {type(exc).__name__}: {exc}") from exc
