"""Scenario config files: flat INI-style sections, line-anchored errors.

Grammar: `[section]` headers, `key = value` pairs, `#` comments, blank lines
ignored.  Sections: scenario, model, model_pre, model_post, numerics.  The
`barrier` key may repeat; list-valued keys use whitespace-separated numbers.
Unknown sections or keys are rejected with the offending line number.
"""
from __future__ import annotations

import math

from .errors import ConfigError
from .model import BASES, ModelSpec, load_matrix_csv
from .scenarios import NumericsSpec, ScenarioSpec, validate_spec


def _floats(raw: str) -> tuple:
    return tuple(float(x) for x in raw.split())


def _barrier(raw: str) -> tuple:
    parts = raw.split()
    if len(parts) != 3:
        raise ValueError("expected `first last height`")
    return (int(parts[0]), int(parts[1]), float(parts[2]))


def _base(raw: str) -> str:
    if raw not in BASES:
        raise ValueError(f"expected one of {', '.join(BASES)}")
    return raw


# each key's parser; a ValueError it raises names the line
_SCENARIO_KEYS = {
    "kind": str,
    "m": int,
    "m1": int,
    "m2": int,
    "t_start": float,
    "t_end": float,
    "steps": int,
    "snapshot_times": _floats,
    "mu_values": _floats,
    "mu_over_n": _floats,  # start stop step, expanded against n_sites
    "epsilon": float,
    "beta": float,
}
_MODEL_KEYS = {
    "n_sites": int,
    "base": _base,
    "j1": float,
    "custom_matrix": str,
    "trap_omega": float,
    "trap_center": float,
    "barrier": _barrier,
    "perturbation_epsilon": float,
    "perturbation_beta": float,
}
_NUMERICS_KEYS = {"chi_max": int, "trunc_tol": float}
_SECTIONS = {
    "scenario": _SCENARIO_KEYS,
    "model": _MODEL_KEYS,
    "model_pre": _MODEL_KEYS,
    "model_post": _MODEL_KEYS,
    "numerics": _NUMERICS_KEYS,
}


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


def _read_keys(sections, section: str) -> dict:
    """The parsed values of one section's keys; `barrier` alone may repeat,
    and its values collect in a list."""
    schema = _SECTIONS[section]
    fields = {}
    for lineno, key, raw in sections.get(section, []):
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in [{section}]", line=lineno)
        if key in fields and key != "barrier":
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        try:
            value = schema[key](raw)
        except ValueError as exc:
            raise ConfigError(f"cannot parse value {raw!r}: {exc}", line=lineno) from exc
        if key == "barrier":
            fields.setdefault(key, []).append(value)
        else:
            fields[key] = value
    return fields


def _build_model(sections, section: str) -> ModelSpec | None:
    if section not in sections:
        return None
    fields = _read_keys(sections, section)
    if "n_sites" not in fields:
        raise ConfigError(f"[{section}] needs n_sites")
    base = fields.get("base", "inverse_distance")
    if ("custom_matrix" in fields) != (base == "custom"):
        raise ConfigError(f"[{section}] needs custom_matrix and base = custom together, "
                          "not one without the other")
    custom = None
    if "custom_matrix" in fields:
        path = fields.pop("custom_matrix")
        custom = load_matrix_csv(path).entries
        if custom.shape[0] != fields["n_sites"]:
            raise ConfigError(f"custom_matrix {path}: {custom.shape[0]} sites, but [{section}] "
                              f"has n_sites = {fields['n_sites']}")
    return ModelSpec(
        n_sites=fields["n_sites"],
        base=base,
        j1=fields.get("j1", 0.0),
        custom=custom,
        trap_omega=fields.get("trap_omega"),
        trap_center=fields.get("trap_center"),
        barriers=tuple(fields.get("barrier", ())),
        perturbation_eps=fields.get("perturbation_epsilon"),
        perturbation_beta=fields.get("perturbation_beta"),
    )


def parse_config_text(text: str) -> ScenarioSpec:
    sections = _read_sections(text)
    if "scenario" not in sections:
        raise ConfigError("missing [scenario] section")
    sc = _read_keys(sections, "scenario")
    if "kind" not in sc:
        raise ConfigError("[scenario] needs a kind")
    model, model_pre, model_post = (_build_model(sections, name)
                                    for name in ("model", "model_pre", "model_post"))
    num = _read_keys(sections, "numerics")
    numerics = NumericsSpec(chi_max=num.get("chi_max"), trunc_tol=num.get("trunc_tol", 1e-12))

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
        if count < 1:
            raise ConfigError(f"mu_over_n step {step:g} points away from stop {stop:g}")
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
