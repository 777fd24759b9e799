"""Scenario config files: flat INI-style sections, line-anchored errors.

Grammar: `[section]` headers, `key = value` pairs, `#` comments, blank lines
ignored.  Sections: scenario, model, model_pre, model_post, numerics.  The
`barrier` key may repeat; list-valued keys use whitespace-separated numbers.
Unknown sections or keys are rejected with the offending line number.
"""
from __future__ import annotations

import math

from .errors import ConfigError
from .model import ModelSpec, load_matrix_csv
from .scenarios import NumericsSpec, ScenarioSpec, validate_spec

_SCENARIO_KEYS = {
    "kind": str,
    "m": int,
    "m1": int,
    "m2": int,
    "t_start": float,
    "t_end": float,
    "steps": int,
    "snapshot_times": "floats",
    "mu_values": "floats",
    "mu_over_n": "floats",  # start stop step, expanded against n_sites
    "epsilon": float,
    "beta": float,
}
_MODEL_KEYS = {
    "n_sites": int,
    "base": str,
    "j1": float,
    "custom_matrix": str,
    "trap_omega": float,
    "trap_center": float,
    "barrier": "barrier",
    "perturbation_epsilon": float,
    "perturbation_beta": float,
}
_NUMERICS_KEYS = {"local_dim": int, "chi_max": int, "trunc_tol": float}
_SECTIONS = {
    "scenario": _SCENARIO_KEYS,
    "model": _MODEL_KEYS,
    "model_pre": _MODEL_KEYS,
    "model_post": _MODEL_KEYS,
    "numerics": _NUMERICS_KEYS,
}


def _parse_value(schema, raw, line):
    try:
        if schema is str:
            return raw
        if schema is int:
            return int(raw)
        if schema is float:
            return float(raw)
        if schema == "floats":
            return tuple(float(x) for x in raw.split())
        if schema == "barrier":
            parts = raw.split()
            if len(parts) != 3:
                raise ValueError("expected `first last height`")
            return (int(parts[0]), int(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise ConfigError(f"cannot parse value {raw!r}: {exc}", line=line) from exc
    raise ConfigError(f"unhandled schema {schema!r}", line=line)


def _read_sections(text: str):
    sections = {}
    current = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}]", line=lineno)
            if name in sections:
                raise ConfigError(f"duplicate section [{name}]", line=lineno)
            current = sections.setdefault(name, [])
            continue
        if current is None:
            raise ConfigError("key before any [section] header", line=lineno)
        if "=" not in line:
            raise ConfigError(f"expected `key = value`, got {line!r}", line=lineno)
        key, raw = (part.strip() for part in line.split("=", 1))
        current.append((lineno, key, raw))
    return sections


def _build_model(pairs, section: str) -> ModelSpec:
    fields = {"barriers": []}
    for lineno, key, raw in pairs:
        if key not in _MODEL_KEYS:
            raise ConfigError(f"unknown key {key!r} in [{section}]", line=lineno)
        value = _parse_value(_MODEL_KEYS[key], raw, lineno)
        if key == "barrier":
            fields["barriers"].append(value)
        elif key in fields and key != "barriers":
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        else:
            fields[key] = value
    if "n_sites" not in fields:
        raise ConfigError(f"[{section}] needs n_sites")
    custom = None
    if "custom_matrix" in fields:
        custom = load_matrix_csv(fields.pop("custom_matrix")).entries
    return ModelSpec(
        n_sites=fields["n_sites"],
        base=fields.get("base", "inverse_distance"),
        j1=fields.get("j1", 0.0),
        custom=custom,
        trap_omega=fields.get("trap_omega"),
        trap_center=fields.get("trap_center"),
        barriers=tuple(fields["barriers"]),
        perturbation_eps=fields.get("perturbation_epsilon"),
        perturbation_beta=fields.get("perturbation_beta"),
    )


def parse_config_text(text: str) -> ScenarioSpec:
    sections = _read_sections(text)
    if "scenario" not in sections:
        raise ConfigError("missing [scenario] section")
    sc = {}
    for lineno, key, raw in sections["scenario"]:
        if key not in _SCENARIO_KEYS:
            raise ConfigError(f"unknown key {key!r} in [scenario]", line=lineno)
        if key in sc:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        sc[key] = _parse_value(_SCENARIO_KEYS[key], raw, lineno)
    if "kind" not in sc:
        raise ConfigError("[scenario] needs a kind")

    model = _build_model(sections["model"], "model") if "model" in sections else None
    model_pre = (_build_model(sections["model_pre"], "model_pre")
                 if "model_pre" in sections else None)
    model_post = (_build_model(sections["model_post"], "model_post")
                  if "model_post" in sections else None)

    num = {}
    for lineno, key, raw in sections.get("numerics", []):
        if key not in _NUMERICS_KEYS:
            raise ConfigError(f"unknown key {key!r} in [numerics]", line=lineno)
        num[key] = _parse_value(_NUMERICS_KEYS[key], raw, lineno)
    numerics = NumericsSpec(local_dim=num.get("local_dim"),
                            chi_max=num.get("chi_max"),
                            trunc_tol=num.get("trunc_tol", 1e-12))

    mu_values = sc.get("mu_values", ())
    if "mu_over_n" in sc:
        if mu_values:
            raise ConfigError("give either mu_values or mu_over_n, not both")
        grid = sc["mu_over_n"]
        if len(grid) != 3:
            raise ConfigError("mu_over_n needs `start stop step`")
        ref = model or model_pre
        if ref is None:
            raise ConfigError("mu_over_n needs a [model] to scale against")
        start, stop, step = grid
        if step == 0.0 or not all(math.isfinite(x) for x in grid):
            raise ConfigError("mu_over_n needs finite values and a nonzero step")
        count = int(round((stop - start) / step)) + 1
        mu_values = tuple(float((start + i * step) * ref.n_sites)
                          for i in range(count))

    spec = ScenarioSpec(
        kind=sc["kind"],
        model=model,
        model_pre=model_pre,
        model_post=model_post,
        m=sc.get("m"),
        m1=sc.get("m1"),
        m2=sc.get("m2"),
        t_start=sc.get("t_start", 0.0),
        t_end=sc.get("t_end", 0.0),
        steps=sc.get("steps", 1),
        snapshot_times=tuple(sc.get("snapshot_times", ())),
        mu_values=mu_values,
        epsilon=sc.get("epsilon"),
        beta=sc.get("beta"),
        numerics=numerics,
    )
    return validate_spec(spec)


def parse_config(path) -> ScenarioSpec:
    with open(path) as fh:
        return parse_config_text(fh.read())
