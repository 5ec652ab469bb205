"""Tiny structural validator for the subset of JSON Schema the shipped
schema files use (type, enum, required, properties, additionalProperties,
patternProperties, items, numeric bounds, pattern, oneOf, $ref to $defs)."""

from __future__ import annotations

import math
import re

_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _type_ok(value, name: str) -> bool:
    if name == "number":  # NaN and infinities are not JSON numbers
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    if name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, _TYPES[name])


def validate(value, schema: dict, root: dict = None, path: str = "$") -> list:
    """Returns a list of violation strings (empty = valid)."""
    root = root if root is not None else schema
    errors = []
    if "$ref" in schema:
        ref = schema["$ref"]
        assert ref.startswith("#/$defs/"), ref
        return validate(value, root["$defs"][ref.split("/")[-1]], root, path)
    if "oneOf" in schema:
        branches = [validate(value, sub, root, path) for sub in schema["oneOf"]]
        if not any(not b for b in branches):
            errors.append(f"{path}: matches no oneOf branch")
        return errors
    if "type" in schema:
        types = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not any(_type_ok(value, t) for t in types):
            return [f"{path}: expected {types}, got {type(value).__name__}"]
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in enum")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{path}: below minimum")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            errors.append(f"{path}: not above exclusiveMinimum")
    if isinstance(value, str) and "pattern" in schema:
        if not re.search(schema["pattern"], value):
            errors.append(f"{path}: does not match pattern")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing required {key!r}")
        props = schema.get("properties", {})
        patterns = schema.get("patternProperties", {})
        additional = schema.get("additionalProperties", True)
        for key, sub in value.items():
            if key in props:
                errors.extend(validate(sub, props[key], root, f"{path}.{key}"))
                continue
            pat = next((p for p in patterns if re.search(p, key)), None)
            if pat is not None:
                errors.extend(validate(sub, patterns[pat], root, f"{path}.{key}"))
                continue
            if additional is False:
                errors.append(f"{path}: unexpected property {key!r}")
            elif isinstance(additional, dict):
                errors.extend(validate(sub, additional, root, f"{path}.{key}"))
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            errors.extend(validate(item, schema["items"], root, f"{path}[{i}]"))
    return errors
