"""Public repair API: ``repair_json`` / ``loads`` / ``load`` / ``from_file`` / CLI.

Drop-in contract parity with the reference facade
(mangiucugna/json_repair ``json_repair.py:100-480``): strict ``json.loads``
fast path first, tolerant parse fallback, optional schema repair+validate,
serialize or return objects, optional repair log.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Iterable, Literal, TextIO, overload

from .common import JSONReturnType
from .core import RepairParser
from .filebuf import FileBuffer
from .schema import SchemaFixer, load_schema_model, normalize_mode, schema_from_input


# Overload set mirrors the reference facade exactly
# (reference json_repair.py:36-98) so a caller migrating from the reference
# keeps the same static inference: default flags -> str, return_objects=True
# -> JSONReturnType, logging=True -> (value, repair_log) tuple.
@overload
def repair_json(
    json_str: str = "",
    return_objects: Literal[False] = False,
    skip_json_loads: bool = False,
    logging: Literal[False] = False,
    json_fd: TextIO | None = None,
    chunk_length: int = 0,
    stream_stable: bool = False,
    strict: bool = False,
    schema: Any | None = None,
    schema_repair_mode: Literal["standard", "salvage"] = "standard",
    **json_dumps_args: Any,
) -> str: ...


@overload
def repair_json(
    json_str: str = "",
    return_objects: Literal[True] = True,
    skip_json_loads: bool = False,
    logging: Literal[False] = False,
    json_fd: TextIO | None = None,
    chunk_length: int = 0,
    stream_stable: bool = False,
    strict: bool = False,
    schema: Any | None = None,
    schema_repair_mode: Literal["standard", "salvage"] = "standard",
    **json_dumps_args: Any,
) -> JSONReturnType: ...


@overload
def repair_json(
    json_str: str = "",
    return_objects: bool = False,
    skip_json_loads: bool = False,
    logging: Literal[True] = True,
    json_fd: TextIO | None = None,
    chunk_length: int = 0,
    stream_stable: bool = False,
    strict: bool = False,
    schema: Any | None = None,
    schema_repair_mode: Literal["standard", "salvage"] = "standard",
    **json_dumps_args: Any,
) -> tuple[JSONReturnType, list[dict[str, str]]]: ...


@overload
def repair_json(
    json_str: str = "",
    return_objects: bool = False,
    skip_json_loads: bool = False,
    logging: bool = False,
    json_fd: TextIO | None = None,
    chunk_length: int = 0,
    stream_stable: bool = False,
    strict: bool = False,
    schema: Any | None = None,
    schema_repair_mode: Literal["standard", "salvage"] = "standard",
    **json_dumps_args: Any,
) -> str | JSONReturnType | tuple[JSONReturnType, list[dict[str, str]]]: ...


def repair_json(
    json_str: str = "",
    return_objects: bool = False,
    skip_json_loads: bool = False,
    logging: bool = False,
    json_fd: TextIO | None = None,
    chunk_length: int = 0,
    stream_stable: bool = False,
    strict: bool = False,
    schema: Any | None = None,
    schema_repair_mode: Literal["standard", "salvage"] = "standard",
    **json_dumps_args: Any,
) -> JSONReturnType | tuple[JSONReturnType, list[dict[str, str]]]:
    """Decode ``json_str`` (or ``json_fd``), repairing it when invalid.

    Returns the repaired JSON string, or the decoded object when
    ``return_objects``, or ``(object, repair_log)`` when ``logging``.
    """
    schema_repair_mode = normalize_mode(schema_repair_mode)
    if schema is None and schema_repair_mode == "salvage":
        raise ValueError("schema_repair_mode='salvage' requires schema.")
    if schema is not None and strict:
        raise ValueError("schema and strict cannot be used together.")

    parser: RepairParser | None = None
    repair_log: list[dict[str, str]] = []
    # skip_json_loads only skips whole-input validation; the targeted
    # valid-suffix decode stays available for string input.
    try_suffix = json_fd is None
    if json_fd is not None:
        parser = RepairParser(
            FileBuffer(json_fd, chunk_length),
            logging=logging,
            stream_stable=stream_stable,
            strict=strict,
        )
        if logging:
            repair_log = parser.entries

    schema_obj = schema_from_input(schema) if schema is not None else None
    fixer = (
        SchemaFixer(schema_obj, repair_log if logging else None, mode=schema_repair_mode)
        if schema_obj is not None
        else None
    )

    parsed: Any = None
    valid = False
    try:
        if not skip_json_loads:
            parsed = json.load(json_fd) if json_fd else json.loads(json_str)
            if fixer is not None and schema_obj is not None:
                # Valid JSON may still be schema-noncompliant: repair in place,
                # falling back to the schema-guided parser when that fails.
                try:
                    if fixer.is_valid(parsed, schema_obj):
                        valid = True
                    else:
                        try:
                            candidate = fixer.fix(parsed, schema_obj, "$")
                            if fixer.is_valid(candidate, schema_obj):
                                parsed = candidate
                                valid = True
                        except ValueError:
                            pass
                except RecursionError as exc:
                    raise ValueError("Input schema nesting exceeds the supported schema recursion depth.") from exc
            else:
                valid = True
    except (json.JSONDecodeError, TypeError, ValueError):
        pass

    if not valid:
        if parser is None:
            parser = RepairParser(
                json_str,
                logging=logging,
                stream_stable=stream_stable,
                strict=strict,
                try_suffix=try_suffix,
            )
            if logging:
                parser.entries = repair_log
        try:
            if fixer is not None and schema_obj is not None:
                try:
                    parsed = parser.run_with_schema(fixer, schema_obj)
                    fixer.validate(parsed, schema_obj)
                except RecursionError as exc:
                    raise ValueError("Input schema nesting exceeds the supported schema recursion depth.") from exc
            else:
                parsed = parser.run()
        except RecursionError as exc:
            raise ValueError("Input nesting exceeds the supported parser recursion depth.") from exc

    if logging:
        return parsed, repair_log
    if return_objects:
        return parsed
    if parsed == "":
        # Avoid returning a bare pair of quotes for an empty result.
        return ""
    return json.dumps(parsed, **json_dumps_args)


def loads(
    json_str: str,
    skip_json_loads: bool = False,
    logging: bool = False,
    stream_stable: bool = False,
    strict: bool = False,
    schema: Any | None = None,
    schema_repair_mode: Literal["standard", "salvage"] = "standard",
) -> JSONReturnType | tuple[JSONReturnType, list[dict[str, str]]] | str:
    """``json.loads`` drop-in that repairs invalid input."""
    return repair_json(
        json_str=json_str,
        return_objects=True,
        skip_json_loads=skip_json_loads,
        logging=logging,
        stream_stable=stream_stable,
        strict=strict,
        schema=schema,
        schema_repair_mode=schema_repair_mode,
    )


# The C scanner ``json.loads`` runs (``JSONDecoder.raw_decode``), built once
# per process: a scanner object cannot be pickled into a Ray UDF.
_scan_once = json.JSONDecoder().scan_once


def loads_column(values: Iterable[Any]) -> list[Any]:
    """``json.loads`` of each of ``values``, else its tolerant parse.

    A value the C scanner consumes whole from offset 0 is exactly what
    ``json.loads`` returns, without its Python wrapper.  Any other value
    (surrounding whitespace, trailing data, invalid JSON, bytes) goes
    through ``json.loads`` and then ``loads(value, skip_json_loads=True)``.
    A NULL (None), and a value the tolerant parser refuses with
    ``ValueError``, give None, as SQL's ``json_extract`` gives NULL."""
    out: list[Any] = []
    for s in values:
        if s is None:
            out.append(None)
            continue
        try:
            v, end = _scan_once(s, 0)
            if end == len(s):
                out.append(v)
                continue
        except (StopIteration, TypeError, ValueError):
            pass
        try:
            out.append(json.loads(s))
        except (TypeError, ValueError):
            try:
                out.append(loads(s, skip_json_loads=True))
            except ValueError:
                out.append(None)
    return out


def load(
    fd: TextIO,
    skip_json_loads: bool = False,
    logging: bool = False,
    chunk_length: int = 0,
    strict: bool = False,
    schema: Any | None = None,
    schema_repair_mode: Literal["standard", "salvage"] = "standard",
) -> JSONReturnType | tuple[JSONReturnType, list[dict[str, str]]]:
    """``json.load`` drop-in; repairs from the fd's current position."""
    return repair_json(
        json_fd=fd,
        chunk_length=chunk_length,
        return_objects=True,
        skip_json_loads=skip_json_loads,
        logging=logging,
        strict=strict,
        schema=schema,
        schema_repair_mode=schema_repair_mode,
    )


def from_file(
    filename: str | Path,
    skip_json_loads: bool = False,
    logging: bool = False,
    chunk_length: int = 0,
    strict: bool = False,
    schema: Any | None = None,
    schema_repair_mode: Literal["standard", "salvage"] = "standard",
) -> JSONReturnType | tuple[JSONReturnType, list[dict[str, str]]]:
    """Filename convenience wrapper over :func:`load`."""
    with Path(filename).open() as fd:
        return load(
            fd=fd,
            skip_json_loads=skip_json_loads,
            logging=logging,
            chunk_length=chunk_length,
            strict=strict,
            schema=schema,
            schema_repair_mode=schema_repair_mode,
        )


def cli(inline_args: list[str] | None = None) -> int:
    """Repair a JSON file (or stdin) from the command line."""
    ap = argparse.ArgumentParser(description="Repair and parse JSON files.")
    ap.add_argument("filename", nargs="?", help="The JSON file to repair (if omitted, reads from stdin)")
    ap.add_argument("-i", "--inline", action="store_true", help="Replace the file inline")
    ap.add_argument("-o", "--output", metavar="TARGET", help="Write output to TARGET instead of stdout")
    ap.add_argument("--ensure_ascii", action="store_true", help="Pass ensure_ascii=True to json.dumps()")
    ap.add_argument("--indent", type=int, default=2, help="Number of spaces for indentation (Default 2)")
    ap.add_argument("--skip-json-loads", action="store_true", help="Skip initial json.loads validation")
    ap.add_argument("--schema", metavar="SCHEMA", help="Path to a JSON Schema file that guides repairs")
    ap.add_argument("--schema-model", metavar="MODEL", help="Pydantic v2 model 'module:ClassName' that guides repairs")
    ap.add_argument("--strict", action="store_true", help="Raise on unrecoverable structures instead of repairing")
    ap.add_argument(
        "--schema-repair-mode",
        choices=["standard", "salvage"],
        default="standard",
        help="Schema repair mode: 'standard' (default) or 'salvage'",
    )
    args = ap.parse_args(inline_args)

    if args.inline and not args.filename:  # pragma: no cover
        print("Error: Inline mode requires a filename", file=sys.stderr)
        sys.exit(1)
    if args.inline and args.output:  # pragma: no cover
        print("Error: You cannot pass both --inline and --output", file=sys.stderr)
        sys.exit(1)
    if args.schema and args.schema_model:
        print("Error: You cannot pass both --schema and --schema-model", file=sys.stderr)
        sys.exit(1)
    if args.strict and (args.schema or args.schema_model):
        print("Error: --strict cannot be used with --schema or --schema-model", file=sys.stderr)
        sys.exit(1)
    if args.schema_repair_mode == "salvage" and not (args.schema or args.schema_model):
        print("Error: --schema-repair-mode salvage requires --schema or --schema-model", file=sys.stderr)
        sys.exit(1)

    try:
        schema = None
        if args.schema:
            with Path(args.schema).open() as fd:
                schema = json.load(fd)
        elif args.schema_model:
            schema = load_schema_model(args.schema_model)

        if args.filename:
            result = from_file(
                args.filename,
                skip_json_loads=args.skip_json_loads,
                strict=args.strict,
                schema=schema,
                schema_repair_mode=args.schema_repair_mode,
            )
        else:
            result = loads(
                sys.stdin.read(),
                skip_json_loads=args.skip_json_loads,
                strict=args.strict,
                schema=schema,
                schema_repair_mode=args.schema_repair_mode,
            )
        if args.inline or args.output:
            with Path(args.output or args.filename).open(mode="w") as fd:
                json.dump(result, fd, indent=args.indent, ensure_ascii=args.ensure_ascii)
        else:
            print(json.dumps(result, indent=args.indent, ensure_ascii=args.ensure_ascii))
    except (OSError, TypeError, ValueError) as exc:  # pragma: no cover
        print(f"Error: {exc!s}", file=sys.stderr)
        return 1
    return 0
