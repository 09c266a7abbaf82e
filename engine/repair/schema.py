"""Schema-directed value repair (coerce / fill / drop / validate).

From-scratch re-implementation of the reference's schema repairer
(mangiucugna/json_repair ``schema_repair.py`` 748 LoC).  Given a JSON Schema
(dict / bool / pydantic-v2 model) and a parsed value, rewrite the value so it
validates — or raise ``ValueError``.  In the Ray engine this runs inside
``map_batches`` stages: one ``SchemaFixer`` per stage, kept once per worker
process, so compiled jsonschema validators are cached per worker (mirror of
the reference's validator cache, schema_repair.py:141-161).

Behavioral contract citations (reference file:line):
  - schema_from_input / pydantic defaults   schema_repair.py:91-121
  - $ref resolution                         schema_repair.py:185-209,712-728
  - validation + items-list shim            schema_repair.py:45-60,141-183
  - fix dispatcher / unions                 schema_repair.py:247-330
  - object repair                           schema_repair.py:429-514
  - array repair                            schema_repair.py:365-427
  - scalar coercion                         schema_repair.py:631-703
  - missing-value fill                      schema_repair.py:573-629
  - salvage suite                           schema_repair.py:381-390,429-441,516-571
  - patternProperties subset                utils/pattern_properties.py:7-50
"""

from __future__ import annotations

import copy
import importlib
import json
from typing import Any

from .common import MISSING, MissingType

REPAIR_MODES = ("standard", "salvage")

# Safe literal/anchor subset of regex for patternProperties.
_REGEX_TOKENS = frozenset({".", "^", "$", "*", "+", "?", "{", "}", "[", "]", "|", "(", ")", "\\"})


class SchemaDefinitionError(ValueError):
    """Schema metadata is invalid or unsupported."""


def normalize_mode(mode: str | None) -> str:
    if mode is None:
        return "standard"
    if mode in REPAIR_MODES:
        return mode
    raise ValueError(f"schema_repair_mode must be one of: {', '.join(REPAIR_MODES)}.")


def _jsonschema():
    try:
        return importlib.import_module("jsonschema")
    except ImportError as exc:  # pragma: no cover
        raise ValueError("jsonschema is required when using schema-aware repair.") from exc


def load_schema_model(path: str) -> type:
    """Resolve a 'module:ClassName' string to a class (CLI --schema-model)."""
    if ":" not in path:
        raise ValueError("Schema model must be in the form 'module:ClassName'.")
    module_name, class_name = path.split(":", 1)
    module = importlib.import_module(module_name)
    model = module.__dict__.get(class_name)
    if model is None or not isinstance(model, type):
        raise ValueError(f"Schema model '{class_name}' not found in module '{module_name}'.")
    return model


def scrub_missing(value: Any):
    """Replace MISSING sentinels with '' and reject non-JSON values."""
    if value is MISSING or isinstance(value, MissingType):
        return ""
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise ValueError("Object keys must be strings.")
            out[k] = scrub_missing(v)
        return out
    if isinstance(value, list):
        return [scrub_missing(v) for v in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise ValueError("Value is not JSON compatible.")


def schema_from_input(schema: Any) -> dict | bool:
    """Normalize a dict / bool / pydantic-v2 model into a JSON Schema."""
    if isinstance(schema, dict):
        return schema
    if schema is True or schema is False:
        return schema
    if hasattr(schema, "model_json_schema"):
        try:
            pydantic = importlib.import_module("pydantic")
        except ImportError as exc:  # pragma: no cover
            raise ValueError("pydantic is required when using schema models.") from exc
        version = getattr(pydantic, "VERSION", getattr(pydantic, "__version__", "0"))
        if int(version.split(".")[0]) < 2:
            raise ValueError("pydantic v2 is required for schema models.")
        schema_dict = schema.model_json_schema()
        if hasattr(schema, "model_fields"):
            props = schema_dict.setdefault("properties", {})
            if not isinstance(props, dict):
                props = {}
                schema_dict["properties"] = props
            for name, field in schema.model_fields.items():
                if field.is_required():
                    continue
                prop = props.setdefault(name, {})
                if not isinstance(prop, dict):
                    prop = {}
                    props[name] = prop
                if "default" in prop:
                    continue
                if field.default_factory is not None:
                    prop["default"] = field.default_factory()
                else:
                    prop["default"] = field.default
        return schema_dict
    raise ValueError("Schema must be a JSON Schema dict, boolean schema, or pydantic v2 model.")


def match_patterns(pattern_properties, key: str):
    """Match patternProperties against a key using the literal+anchor subset.

    Returns (matched_schemas, unsupported_patterns).
    """
    if not pattern_properties:
        return [], []
    matched: list = []
    unsupported: list[str] = []
    for pattern, sub in pattern_properties.items():
        starts = pattern.startswith("^")
        ends = pattern.endswith("$")
        literal = pattern[1 if starts else 0: -1 if ends else None]
        if any(tok in literal for tok in _REGEX_TOKENS):
            unsupported.append(pattern)
            continue
        if starts and ends:
            ok = key == literal
        elif starts:
            ok = key.startswith(literal)
        elif ends:
            ok = key.endswith(literal)
        else:
            ok = literal in key
        if ok:
            matched.append(sub)
    return matched, unsupported


def _shim_items_lists(node: Any) -> Any:
    """Draft shim: positional `items: [...]` becomes `prefixItems` for validation."""
    if isinstance(node, dict):
        out = {k: _shim_items_lists(v) for k, v in node.items()}
        items = out.get("items")
        if isinstance(items, list):
            out.pop("items", None)
            out["prefixItems"] = items
            extra = out.pop("additionalItems", None)
            if extra is False:
                out["items"] = False
            elif isinstance(extra, dict):
                out["items"] = extra
        return out
    if isinstance(node, list):
        return [_shim_items_lists(v) for v in node]
    return node


class SchemaFixer:
    """Type-directed value rewriter for one resolved root schema."""

    def __init__(self, schema, log=None, mode: str = "standard") -> None:
        self.root = schema
        self.log = log
        self.mode = normalize_mode(mode)
        self._validators: dict[int, tuple] = {}
        self._root_validator = None
        # type-union branch schemas ({**schema, "type": t}) are interned here
        # so the validator cache stays bounded across millions of rows
        self._branches: dict[tuple[int, str], dict] = {}

    # ----------------------------------------------------------- bookkeeping

    def report(self, text: str, path: str) -> None:
        if self.log is not None:
            self.log.append({"text": text, "context": path})

    # ------------------------------------------------------------ validation

    def _validator_for(self, schema: dict):
        cached = self._validators.get(id(schema))
        if cached is not None and cached[0] is schema:
            return cached[1]
        prepared = _shim_items_lists(schema)
        if not isinstance(prepared, dict):
            raise ValueError("Schema must be an object.")
        root = self._root_validator_instance()
        validator = root if schema is self.root else root.evolve(schema=prepared)
        self._validators[id(schema)] = (schema, validator)
        return validator

    def _root_validator_instance(self):
        if self._root_validator is None:
            prepared = _shim_items_lists(self.root)
            if not isinstance(prepared, dict):
                raise ValueError("Schema must be an object.")
            js = _jsonschema()
            cls = js.validators.validator_for(prepared)
            self._root_validator = cls(prepared)
        return self._root_validator

    def is_valid(self, value, schema) -> bool:
        schema = self.resolve_schema(schema)
        if schema is True:
            return True
        if schema is False:
            return False
        return bool(self._validator_for(schema).is_valid(value))

    def validate(self, value, schema) -> None:
        schema = self.resolve_schema(schema)
        if schema is True:
            return
        if schema is False:
            raise ValueError("Schema does not allow any values.")
        js = _jsonschema()
        try:
            self._validator_for(schema).validate(value)
        except js.exceptions.ValidationError as exc:
            raise ValueError(exc.message) from exc

    # ------------------------------------------------------------ resolution

    def resolve_schema(self, schema):
        if schema is None:
            return True
        if isinstance(schema, bool):
            return schema
        if not isinstance(schema, dict):
            raise SchemaDefinitionError("Schema must be an object.")
        for k in schema:
            if not isinstance(k, str):
                raise SchemaDefinitionError("Schema keys must be strings.")
        node = schema
        seen: set[int] = set()
        while "$ref" in node:
            ref = node["$ref"]
            if not isinstance(ref, str):
                raise SchemaDefinitionError("$ref must be a string.")
            if id(node) in seen:
                raise SchemaDefinitionError(f"Circular $ref detected: {ref}")
            seen.add(id(node))
            resolved = self._deref(ref)
            if isinstance(resolved, bool):
                return resolved
            node = resolved
        return node

    def _deref(self, ref: str):
        if not ref.startswith("#/"):
            raise SchemaDefinitionError(f"Unsupported $ref: {ref}")
        node: Any = self.root
        for part in ref.lstrip("#/").split("/"):
            key = part.replace("~1", "/").replace("~0", "~")
            if not isinstance(node, dict) or key not in node:
                raise SchemaDefinitionError(f"Unresolvable $ref: {ref}")
            node = node[key]
        if isinstance(node, dict) or node is True or node is False:
            return node
        raise SchemaDefinitionError(f"Unresolvable $ref: {ref}")

    def is_object_schema(self, schema) -> bool:
        schema = self.resolve_schema(schema)
        if not isinstance(schema, dict):
            return False
        t = schema.get("type")
        if t == "object" or (isinstance(t, list) and "object" in t):
            return True
        return any(k in schema for k in ("properties", "patternProperties", "additionalProperties", "required"))

    def is_array_schema(self, schema) -> bool:
        schema = self.resolve_schema(schema)
        if not isinstance(schema, dict):
            return False
        t = schema.get("type")
        if t == "array" or (isinstance(t, list) and "array" in t):
            return True
        return "items" in schema

    def match_patterns(self, pattern_properties, key: str):
        return match_patterns(pattern_properties, key)

    def _declares_type(self, schema: dict, name: str) -> bool:
        t = schema.get("type")
        if isinstance(t, str):
            return t == name
        if isinstance(t, list):
            return name in t
        if name == "object":
            return self.is_object_schema(schema)
        return self.is_array_schema(schema)

    # -------------------------------------------------------------- dispatch

    def fix(self, value, schema, path: str):
        """Apply schema rules to a parsed value (unions, coercions, defaults)."""
        schema = self.resolve_schema(schema)
        if schema is True:
            return scrub_missing(value)
        if schema is False:
            raise ValueError("Schema does not allow any values.")
        if not schema:
            return scrub_missing(value)

        if value is MISSING:
            return self._fill(schema, path)

        if "allOf" in schema:
            subs = schema["allOf"]
            if not subs:
                return scrub_missing(value)
            out = self.fix(value, subs[0], path)
            for sub in subs[1:]:
                out = self.fix(out, sub, path)
            return out

        if "oneOf" in schema:
            return self._fix_union(value, schema["oneOf"], path)
        if "anyOf" in schema:
            return self._fix_union(value, schema["anyOf"], path)

        expected = schema.get("type")
        if expected is None:
            if self.is_object_schema(schema):
                expected = "object"
            elif self.is_array_schema(schema):
                expected = "array"

        if isinstance(expected, list):
            return self._fix_type_union(value, expected, schema, path)

        if expected == "object":
            out = self._fix_object(value, schema, path)
        elif expected == "array":
            out = self._fix_array(value, schema, path)
        elif isinstance(expected, str):
            out = self._coerce(value, expected, path)
        else:
            out = scrub_missing(value)

        return self._enforce_enum_const(out, schema, path)

    def _fix_union(self, value, schemas, path: str):
        last: Exception | None = None
        for sub in schemas:
            try:
                candidate = self.fix(copy.deepcopy(value), sub, path)
                self.validate(candidate, sub)
            except ValueError as exc:
                last = exc
            else:
                return candidate
        if last:
            raise ValueError(str(last)) from last
        raise ValueError("No schema matched the value.")

    def _branch_schema(self, schema: dict, name: str) -> dict:
        # Keyed by id() like _validators, and like _validators the entry keeps
        # a strong reference to the keyed schema and identity-checks it —
        # otherwise CPython id reuse could serve a branch built from a freed,
        # different schema dict.
        key = (id(schema), name)
        cached = self._branches.get(key)
        if cached is not None and cached[0] is schema:
            return cached[1]
        branch = {**schema, "type": name}
        self._branches[key] = (schema, branch)
        return branch

    def _fix_type_union(self, value, types, schema, path: str):
        last: Exception | None = None
        for name in types:
            branch = self._branch_schema(schema, name)
            try:
                candidate = self._fix_as(copy.deepcopy(value), name, schema, path)
                candidate = self._enforce_enum_const(candidate, branch, path)
                self.validate(candidate, branch)
            except ValueError as exc:
                last = exc
            else:
                return candidate
        if last:
            raise ValueError(str(last)) from last
        raise ValueError("No schema type matched the value.")

    def _fix_as(self, value, name, schema, path: str):
        if name == "array":
            return self._fix_array(value, schema, path)
        if name == "object":
            return self._fix_object(value, schema, path)
        return self._coerce(value, name, path)

    # ----------------------------------------------------- string containers

    def _unwrap_json_string(self, value, want: type, path: str, unwrap_msg: str, salvage_msg: str):
        if not isinstance(value, str):
            return value
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            if self.mode != "salvage":
                return value
            from .api import loads as tolerant_loads
            fixed = tolerant_loads(value, skip_json_loads=True)
            if isinstance(fixed, want):
                self.report(salvage_msg, path)
                return fixed
            return value
        if isinstance(parsed, want):
            self.report(unwrap_msg, path)
            return parsed
        return value

    # ----------------------------------------------------------------- array

    def _fix_array(self, value, schema, path: str):
        value = self._unwrap_json_string(
            value, list, path,
            "Unwrapped JSON string to array to match schema",
            "Repaired malformed JSON string to array to match schema",
        )
        if isinstance(value, list):
            items = value
        else:
            self.report("Wrapped value in array to match schema", path)
            items = [scrub_missing(value)]

        salvage = self.mode == "salvage"
        items_schema = schema.get("items")
        extra_schema = schema.get("additionalItems")

        def fix_or_drop(raw, sub, item_path):
            try:
                return True, self.fix(raw, sub, item_path)
            except SchemaDefinitionError:
                raise
            except ValueError:
                if not salvage:
                    raise
                self.report("Dropped invalid array item while salvaging", item_path)
                return False, None

        if items_schema is not None:
            if isinstance(items_schema, list):
                fixed: list = []
                for idx, sub in enumerate(items_schema):
                    if idx >= len(items):
                        break
                    keep, v = fix_or_drop(items[idx], sub, f"{path}[{idx}]")
                    if keep:
                        fixed.append(v)
                if len(items) > len(items_schema):
                    tail = items[len(items_schema):]
                    if isinstance(extra_schema, dict):
                        for k, raw in enumerate(tail, start=len(items_schema)):
                            keep, v = fix_or_drop(raw, extra_schema, f"{path}[{k}]")
                            if keep:
                                fixed.append(v)
                    elif extra_schema is True or extra_schema is None:
                        fixed.extend(scrub_missing(raw) for raw in tail)
                    else:
                        for k, _raw in enumerate(tail, start=len(items_schema)):
                            self.report("Dropped extra array item not covered by schema", f"{path}[{k}]")
                items = fixed
            else:
                fixed = []
                for idx, raw in enumerate(items):
                    keep, v = fix_or_drop(raw, items_schema, f"{path}[{idx}]")
                    if keep:
                        fixed.append(v)
                items = fixed

        min_items = schema.get("minItems")
        if min_items is not None and len(items) < min_items:
            raise ValueError(f"Array at {path} does not meet minItems.")
        return items

    # ---------------------------------------------------------------- object

    def _fix_object(self, value, schema, path: str):
        if self.mode == "salvage" and isinstance(value, list) and (
            self._declares_type(schema, "object") and not self._declares_type(schema, "array")
        ):
            mapped = self._list_as_object(value, schema, path)
            if mapped is not None:
                value = mapped
            elif path == "$" and len(value) == 1 and isinstance(value[0], dict):
                # Root wrapper shape: [{...}] -> {...}
                value = value[0]
                self.report("Unwrapped single-item root array to object while salvaging", path)
        value = self._unwrap_json_string(
            value, dict, path,
            "Unwrapped JSON string to object to match schema",
            "Repaired malformed JSON string to object to match schema",
        )
        if not isinstance(value, dict):
            raise ValueError(f"Expected object at {path}, got {type(value).__name__}.")

        props = schema.get("properties", {})
        if not isinstance(props, dict):
            props = {}
        patterns = schema.get("patternProperties", {})
        if not isinstance(patterns, dict):
            patterns = {}
        extra_props = schema.get("additionalProperties")
        required = set(schema.get("required", []))

        if self.mode == "salvage" and required:
            filled = dict(value)
            for k in required:
                if k in filled:
                    continue
                sub = props.get(k)
                if sub is None:
                    continue
                key_path = f"{path}.{k}"
                ok, v = self._salvage_required_fill(sub, key_path)
                if ok:
                    filled[k] = v
                    self.report("Filled missing required property while salvaging", key_path)
            value = filled

        missing = [k for k in required if k not in value]
        if missing:
            raise ValueError(f"Missing required properties at {path}: {', '.join(missing)}")

        out: dict = {}
        for k, sub in props.items():
            key_path = f"{path}.{k}"
            if k in value:
                out[k] = self.fix(value[k], sub, key_path)
            elif isinstance(sub, dict) and "default" in sub and k not in required:
                out[k] = self.copy_value(sub["default"], key_path, "default")
                self.report("Inserted default value for missing property", key_path)

        for k, raw in value.items():
            if k in props:
                continue
            key_path = f"{path}.{k}"
            matched: list = []
            unsupported: list[str] = []
            if patterns:
                matched, unsupported = match_patterns(patterns, k)
            for pattern in unsupported:
                self.report(f"Skipped unsupported patternProperties regex '{pattern}'", key_path)
            if matched:
                v = self.fix(raw, matched[0], key_path)
                for sub in matched[1:]:
                    v = self.fix(v, sub, key_path)
                out[k] = v
                continue
            if isinstance(extra_props, dict):
                out[k] = self.fix(raw, extra_props, key_path)
                continue
            if extra_props is True or extra_props is None:
                out[k] = scrub_missing(raw)
                continue
            self.report("Dropped extra property not covered by schema", key_path)

        min_props = schema.get("minProperties")
        if min_props is not None and len(out) < min_props:
            raise ValueError(f"Object at {path} does not meet minProperties.")
        return out

    def _list_as_object(self, value: list, schema, path: str):
        props = schema.get("properties")
        if not isinstance(props, dict) or not props:
            return None
        for k in props:
            if not isinstance(k, str):
                raise SchemaDefinitionError("Schema object property names must be strings.")
        keys = list(props.keys())
        if len(value) != len(keys):
            return None
        mapped: dict = {}
        for idx, k in enumerate(keys):
            try:
                mapped[k] = self.fix(value[idx], props[k], f"{path}.{k}")
            except SchemaDefinitionError:
                raise
            except ValueError:
                return None
        self.report("Mapped array to object by schema property order", path)
        return mapped

    def _salvage_required_fill(self, schema, path: str):
        resolved = self.resolve_schema(schema)
        if not isinstance(resolved, dict):
            return False, ""
        if "default" in resolved:
            return True, self.copy_value(resolved["default"], path, "default")
        if "const" in resolved:
            return True, self.copy_value(resolved["const"], path, "const")
        enum_values = resolved.get("enum")
        if enum_values:
            return True, self.copy_value(enum_values[0], path, "enum")
        expected = resolved.get("type")
        if expected is None:
            if self.is_array_schema(resolved):
                expected = "array"
            elif self.is_object_schema(resolved):
                expected = "object"
        if expected == "array" and not resolved.get("minItems"):
            return True, []
        if expected == "object" and not resolved.get("minProperties"):
            return True, {}
        return False, ""

    # ------------------------------------------------------------- fill/coerce

    def _fill(self, schema, path: str):
        if "const" in schema:
            self.report("Filled missing value with const", path)
            return self.copy_value(schema["const"], path, "const")
        if "enum" in schema:
            enum_values = schema["enum"]
            if not enum_values:
                raise ValueError(f"Enum at {path} has no values.")
            self.report("Filled missing value with first enum value", path)
            return self.copy_value(enum_values[0], path, "enum")
        if "default" in schema:
            self.report("Filled missing value with default", path)
            return self.copy_value(schema["default"], path, "default")

        expected = schema.get("type")
        if isinstance(expected, list):
            for name in expected:
                try:
                    return self._fill({**schema, "type": name}, path)
                except ValueError:
                    continue
            raise ValueError(f"Cannot infer missing value at {path}.")

        if expected is None:
            if self.is_object_schema(schema):
                expected = "object"
            elif self.is_array_schema(schema):
                expected = "array"

        if expected == "string":
            self.report("Filled missing value with empty string", path)
            return ""
        if expected in ("integer", "number"):
            self.report("Filled missing value with 0", path)
            return 0
        if expected == "boolean":
            self.report("Filled missing value with false", path)
            return False
        if expected == "array":
            if schema.get("minItems"):
                raise ValueError(f"Array at {path} requires at least {schema.get('minItems')} items.")
            self.report("Filled missing value with empty array", path)
            return []
        if expected == "object":
            if schema.get("minProperties"):
                raise ValueError(f"Object at {path} requires at least {schema.get('minProperties')} properties.")
            self.report("Filled missing value with empty object", path)
            return {}
        if expected == "null":
            self.report("Filled missing value with null", path)
            return None
        raise ValueError(f"Cannot infer missing value at {path}.")

    def _coerce(self, value, name: str, path: str):
        if name == "string":
            if isinstance(value, str):
                return value
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                self.report("Coerced number to string", path)
                return str(value)
            raise ValueError(f"Expected string at {path}.")

        if name == "integer":
            if isinstance(value, bool):
                raise ValueError(f"Expected integer at {path}.")
            if isinstance(value, int):
                return value
            if isinstance(value, float):
                if value.is_integer():
                    self.report("Coerced number to integer", path)
                    return int(value)
                raise ValueError(f"Expected integer at {path}.")
            if isinstance(value, str):
                try:
                    return_value = int(value)
                except ValueError:
                    return_value = None
                if return_value is not None:
                    self.report("Coerced string to integer", path)
                    return return_value
                try:
                    num = float(value)
                except ValueError as exc:
                    raise ValueError(f"Expected integer at {path}.") from exc
                if not num.is_integer():
                    raise ValueError(f"Expected integer at {path}.")
                self.report("Coerced number to integer", path)
                return int(num)
            raise ValueError(f"Expected integer at {path}.")

        if name == "number":
            if isinstance(value, bool):
                raise ValueError(f"Expected number at {path}.")
            if isinstance(value, (int, float)):
                return value
            if isinstance(value, str):
                try:
                    out = float(value)
                except ValueError as exc:
                    raise ValueError(f"Expected number at {path}.") from exc
                self.report("Coerced string to number", path)
                return out
            raise ValueError(f"Expected number at {path}.")

        if name == "boolean":
            if isinstance(value, bool):
                return value
            if isinstance(value, str):
                low = value.lower()
                if low in ("true", "yes", "y", "on", "1"):
                    self.report("Coerced string to boolean", path)
                    return True
                if low in ("false", "no", "n", "off", "0"):
                    self.report("Coerced string to boolean", path)
                    return False
            if isinstance(value, (int, float)) and not isinstance(value, bool) and value in (0, 1):
                self.report("Coerced number to boolean", path)
                return bool(value)
            raise ValueError(f"Expected boolean at {path}.")

        if name == "null":
            if value is None:
                return None
            raise ValueError(f"Expected null at {path}.")

        raise SchemaDefinitionError(f"Unsupported schema type {name} at {path}.")

    def _enforce_enum_const(self, value, schema, path: str):
        if "const" in schema and value != schema["const"]:
            raise ValueError(f"Value at {path} does not match const.")
        if "enum" in schema and value not in schema["enum"]:
            raise ValueError(f"Value at {path} does not match enum.")
        return value

    def copy_value(self, value, path: str, label: str):
        if value is None or isinstance(value, (str, int, float, bool)):
            return value
        if isinstance(value, list):
            return [self.copy_value(v, f"{path}[{k}]", label) for k, v in enumerate(value)]
        if isinstance(value, dict):
            out = {}
            for k, v in value.items():
                if not isinstance(k, str):
                    raise ValueError(f"{label.capitalize()} value at {path} contains a non-string key.")
                out[k] = self.copy_value(v, f"{path}.{k}", label)
            return out
        raise ValueError(f"{label.capitalize()} value at {path} is not JSON compatible.")
