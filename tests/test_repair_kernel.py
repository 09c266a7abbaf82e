"""Conformance corpus for the repair kernel.

Expectations ported from the reference library's black-box behavior
(mangiucugna/json_repair test suite; full-suite parity is measured separately
by tools/refshim/run_parity.sh).  Each case is (raw, expected-serialized) or
(raw, kwargs, expected).
"""

import pytest

from engine.repair import loads, repair_json

SERIALIZE_CASES = [
    ('{"name": "John", "age": 30, "city": "New York"}', '{"name": "John", "age": 30, "city": "New York"}'),
    ('{"employees":["John", "Anna", "Peter"]} ', '{"employees": ["John", "Anna", "Peter"]}'),
    ('{"key": "value:value"}', '{"key": "value:value"}'),
    ('{"key": ""', '{"key": ""}'),
    ('{"key": 12345678901234567890}', '{"key": 12345678901234567890}'),
    ("[]{}", "[]"),
    ('[]{"key":"value"}', '{"key": "value"}'),
    ('{"key":"value"}[1,2,3,True]', '[{"key": "value"}, [1, 2, 3, true]]'),
    ('lorem ```json {"key":"value"} ``` ipsum ```json [1,2,3,True] ``` 42', '[{"key": "value"}, [1, 2, 3, true]]'),
    ('[{"key":"value"}][{"key":"value_after"}]', '[{"key": "value_after"}]'),
    ("{'key': 'string', 'key2': false, \"key3\": null, \"key4\": unquoted}",
     '{"key": "string", "key2": false, "key3": null, "key4": "unquoted"}'),
    ('{"name": "John", "age": 30, "city": "New York', '{"name": "John", "age": 30, "city": "New York"}'),
    ('{"name": "John", "age": 30, city: "New York"}', '{"name": "John", "age": 30, "city": "New York"}'),
    ('{"name": "John", "age": 30, "city": New York}', '{"name": "John", "age": 30, "city": "New York"}'),
    ('{“slanted_delimiter”: "value"}', '{"slanted_delimiter": "value"}'),
    ('{"name": "John", "age": 30, "city": "New York, "gender": "male"}',
     '{"name": "John", "age": 30, "city": "New York", "gender": "male"}'),
    ('[{"key": "value", COMMENT "notes": "lorem "ipsum", sic." }]',
     '[{"key": "value", "notes": "lorem \\"ipsum\\", sic."}]'),
    ('{"key": ""value"}', '{"key": "value"}'),
    ('{"key": "value", 5: "value"}', '{"key": "value", "5": "value"}'),
    ('{"foo": "\\"bar\\""', '{"foo": "\\"bar\\""}'),
    ('{"" key":"val"', '{" key": "val"}'),
    ('{"key": value "key2" : "value2" ', '{"key": "value", "key2": "value2"}'),
    ('{"key": "lorem ipsum ... "sic " tamet. ...}', '{"key": "lorem ipsum ... \\"sic \\" tamet. ..."}'),
    ('{"key": value , }', '{"key": "value"}'),
    ('{"comment": "lorem, "ipsum" sic "tamet". To improve"}',
     '{"comment": "lorem, \\"ipsum\\" sic \\"tamet\\". To improve"}'),
    ('{"key": "v"alu"e"} key:', '{"key": "v\\"alu\\"e"}'),
    ('{"key": "v"alue", "key2": "value2"}', '{"key": "v\\"alue", "key2": "value2"}'),
    ('[{"key": "v"alu,e", "key2": "value2"}]', '[{"key": "v\\"alu,e", "key2": "value2"}]'),
    ("'\"'", ""),
    ('{"key": \'string"\n\t\\le\'', '{"key": "string\\"\\n\\t\\\\le"}'),
    ('{"key_1\n": "value"}', '{"key_1": "value"}'),
    ('{"key\t_": "value"}', '{"key\\t_": "value"}'),
    ("{\"key\": 'value'}", '{"key": "value"}'),
    ('{ "content": "[LINK]("https://google.com")" }', '{"content": "[LINK](\\"https://google.com\\")"}'),
    ('{ "content": "[LINK](" }', '{"content": "[LINK]("}'),
    ('{ "content": "[LINK](", "key": true }', '{"content": "[LINK](", "key": true}'),
    ('````{ "key": "value" }```', '{"key": "value"}'),
    ('{"key": "``"', '{"key": "``"}'),
    ('{"key": "```json"', '{"key": "```json"}'),
    ('{"key": "```json {"key": [{"key1": 1},{"key2": 2}]}```"}', '{"key": {"key": [{"key1": 1}, {"key2": 2}]}}'),
    ('{"response": "```json{}"', '{"response": "```json{}"}'),
    ('{"key": true, "key2": false, "key3": null}', '{"key": true, "key2": false, "key3": null}'),
    ('{"key": TRUE, "key2": FALSE, "key3": Null}   ', '{"key": true, "key2": false, "key3": null}'),
    ("{}", "{}"),
    ("{", "{}"),
    ("}", ""),
    ('{"', "{}"),
    ("string", ""),
    ("stringbeforeobject {}", "{}"),
    ("{foo: [}", '{"foo": []}'),
    ('{"value_1": true, COMMENT "value_2": "data"}', '{"value_1": true, "value_2": "data"}'),
    ('{"value_1": true, SHOULD_NOT_EXIST "value_2": "data" AAAA }', '{"value_1": true, "value_2": "data"}'),
    ('{"" : true, "key2": "value2"}', '{"": true, "key2": "value2"}'),
    ('{ "words": abcdef", "numbers": 12345", "words2": ghijkl" }',
     '{"words": "abcdef", "numbers": 12345, "words2": "ghijkl"}'),
    ('{"number": 1,"reason": "According...""ans": "YES"}', '{"number": 1, "reason": "According...", "ans": "YES"}'),
    ('{ "a" : "{ b": {} }" }', '{"a": "{ b"}'),
    ('{"b": "xxxxx" true}', '{"b": "xxxxx"}'),
    ('{"key": "Lorem "ipsum" s,"}', '{"key": "Lorem \\"ipsum\\" s,"}'),
    ('{"lorem": ipsum, sic, datum.",}', '{"lorem": "ipsum, sic, datum."}'),
    ('{"lorem": sic tamet. "ipsum": sic tamet, quick brown fox. "sic": ipsum}',
     '{"lorem": "sic tamet.", "ipsum": "sic tamet", "sic": "ipsum"}'),
    ('{"lorem_ipsum": "sic tamet, quick brown fox. }', '{"lorem_ipsum": "sic tamet, quick brown fox."}'),
    ('{"key":value, " key2":"value2" }', '{"key": "value", " key2": "value2"}'),
    ("{'text': 'words{words in brackets}more words'}", '{"text": "words{words in brackets}more words"}'),
    ("{text:words{words in brackets}}", '{"text": "words{words in brackets}"}'),
    ("{text:words{words in brackets}m}", '{"text": "words{words in brackets}m"}'),
    ('{"key": "value, value2"```', '{"key": "value, value2"}'),
    ("{key:value,key2:value2}", '{"key": "value", "key2": "value2"}'),
    ('{"key:"value"}', '{"key": "value"}'),
    ('{"key:value}', '{"key": "value"}'),
    ('[{"lorem": {"ipsum": "sic"}, """" "lorem": {"ipsum": "sic"}]',
     '[{"lorem": {"ipsum": "sic"}}, {"lorem": {"ipsum": "sic"}}]'),
    ('{ "key": ["arrayvalue"], ["arrayvalue1"], ["arrayvalue2"], "key3": "value3" }',
     '{"key": ["arrayvalue", "arrayvalue1", "arrayvalue2"], "key3": "value3"}'),
    ('{ "key": ["arrayvalue"], "key3": "value3", ["arrayvalue1"] }',
     '{"key": ["arrayvalue"], "key3": "value3", "arrayvalue1": ""}'),
    ('{"key": , "key2": "value2"}', '{"key": "", "key2": "value2"}'),
    ('{"array":[{"key": "value"], "key2": "value2"}', '{"array": [{"key": "value"}], "key2": "value2"}'),
    ('[{"key":"value"}},{"key":"value"}]', '[{"key": "value"}, {"key": "value"}]'),
    ("[]", "[]"),
    ("[1, 2, 3, 4]", "[1, 2, 3, 4]"),
    ("[", "[]"),
    ("[[1\n\n]", "[[1]]"),
    ("[{]", "[]"),
    ("]", ""),
    ("[1, 2, 3,", "[1, 2, 3]"),
    ("[1, 2, 3, ...]", "[1, 2, 3]"),
    ("[1, 2, ... , 3]", "[1, 2, 3]"),
    ("[1, 2, '...', 3]", '[1, 2, "...", 3]'),
    ("[true, false, null, ...]", "[true, false, null]"),
    ('["a" "b" "c" 1', '["a", "b", "c", 1]'),
    ('{"employees":["John", "Anna",', '{"employees": ["John", "Anna"]}'),
    ('{"key1": {"key2": [1, 2, 3', '{"key1": {"key2": [1, 2, 3]}}'),
    ('{"key": ["value]}', '{"key": ["value"]}'),
    ('["lorem "ipsum" sic"]', '["lorem \\"ipsum\\" sic"]'),
    ('{"key1": ["value1", "value2"}, "key2": ["value3", "value4"]}',
     '{"key1": ["value1", "value2"], "key2": ["value3", "value4"]}'),
    ('{"key": ["value" "value1" "value2"]}', '{"key": ["value", "value1", "value2"]}'),
    ('{"k"e"y": "value"}', '{"k\\"e\\"y": "value"}'),
    ('["key":"value"}]', '[{"key": "value"}]'),
    ('["key":"value"]', '[{"key": "value"}]'),
    ('[{"key": "value", "key', '[{"key": "value"}, ["key"]]'),
    ("{'key1', 'key2'}", '["key1", "key2"]'),
    ('["value1" value2", "value3"]', '["value1", "value2", "value3"]'),
    (' - { "test_key": ["test_value", "test_value2"] }', '{"test_key": ["test_value", "test_value2"]}'),
    ('{"key": 1/3}', '{"key": "1/3"}'),
    ('{"key": .25}', '{"key": 0.25}'),
    ('{"key": 1/3, "foo": "bar"}', '{"key": "1/3", "foo": "bar"}'),
    ('{"key": 10-20}', '{"key": "10-20"}'),
    ('{"key": 1.1.1}', '{"key": "1.1.1"}'),
    ("[- ", "[]"),
    ('{"key": 1. }', '{"key": 1.0}'),
    ('{"key": 1e10 }', '{"key": 10000000000.0}'),
    ('{"key": 1e }', '{"key": 1}'),
    ('{"key": 1notanumber }', '{"key": "1notanumber"}'),
    ("[1, 2notanumber]", '[1, "2notanumber"]'),
    ("[105,12", "[105, 12]"),
    ('{"key", 105,12,', '{"key": "105,12"}'),
    ("/", ""),
    ('{ "key": { "key2": "value2" // comment }, "key3": "value3" }', '{"key": {"key2": "value2"}}'),
    ('{ "key": { "key2": "value2" # comment }, "key3": "value3" }',
     '{"key": {"key2": "value2"}, "key3": "value3"}'),
    ('{ "key": { "key2": "value2" /* comment */ }, "key3": "value3" }',
     '{"key": {"key2": "value2"}, "key3": "value3"}'),
    ('[ "value", /* comment */ "value2" ]', '["value", "value2"]'),
    ('{ "key": "value" /* comment', '{"key": "value"}'),
    ('{"key": "value"}, "key2": "value2"}', '{"key": "value", "key2": "value2"}'),
    ('{"key": "value"}, "key2": }', '{"key": "value", "key2": ""}'),
    ('{"key": "value"}, []', '{"key": "value"}'),
    ('{"key": "value"}, ["abc"]', '[{"key": "value"}, ["abc"]]'),
    ('{"key": "value"}, "" : "value2"}', '{"key": "value", "": "value2"}'),
    ("{'': 1}", '{"": 1}'),
]

OBJECT_CASES = [
    ('("a", "b", "c")', ["a", "b", "c"]),
    ("((1, 2), (3, 4))", [[1, 2], [3, 4]]),
    ('{"coords": (1, 2), "ok": true}', {"coords": [1, 2], "ok": True}),
    ('{"empty": ()}', {"empty": []}),
    ("(1)", 1),
    ('("x")', "x"),
    ('{"scalar_group": (1)}', {"scalar_group": 1}),
    ("True", ""),
    ("False", ""),
    ("Null", ""),
    ('{"value": 82_461_110}', {"value": 82461110}),
    ('{"value": 1_234.5_6}', {"value": 1234.56}),
    ('[{"b":"v2","b":"v2"}]', [{"b": "v2"}]),
    ("{'item1', 'item2', 'item3'}", ["item1", "item2", "item3"]),
    ("{:}", {}),
    ("[{5}s ", [[5]]),
    ('{\\"key\\": \\"value\\"}', {"key": "value"}),
    ('{0:a"0"', {"0": "a"}),
    ('{"a": "first, b: "second"}', {"a": "first", "b": "second"}),
    ('{"a": "first, b: 1}', {"a": "first", "b": 1}),
    ('{"a": "first, b: [1]}', {"a": "first", "b": [1]}),
    ('{"a": "first, b: prose}', {"a": "first", "b": "prose"}),
    ('{"key": "value}\\\\\\"more"}', {"key": 'value}"more'}),
    ('{"key": "value} "tail}', {"key": "value} "}),
    ('{"key": "value} key2: value2}', {"key": "value"}),
]


@pytest.mark.parametrize(("raw", "want"), SERIALIZE_CASES)
def test_serialize_corpus(raw, want):
    assert repair_json(raw) == want


@pytest.mark.parametrize(("raw", "want"), SERIALIZE_CASES)
def test_serialize_corpus_skip_loads(raw, want):
    assert repair_json(raw, skip_json_loads=True) == want


@pytest.mark.parametrize(("raw", "want"), OBJECT_CASES)
def test_object_corpus(raw, want):
    assert repair_json(raw, return_objects=True, skip_json_loads=True) == want


def test_stream_stable():
    assert repair_json('{"key": "val\\', stream_stable=False) == '{"key": "val\\\\"}'
    assert repair_json('{"key": "val\\n', stream_stable=False) == '{"key": "val"}'
    assert repair_json('{"key": "val\\', stream_stable=True) == '{"key": "val"}'
    assert repair_json('{"key": "val\\n', stream_stable=True) == '{"key": "val\\n"}'
    assert repair_json('{"key": "val\\n123,`key2:value2', stream_stable=True) == '{"key": "val\\n123,`key2:value2"}'


def test_logging_contract():
    assert repair_json("{}", logging=True) == ({}, [])
    obj, log = repair_json('{"key": "value}', logging=True)
    assert obj == {"key": "value"}
    assert len(log) == 2
    assert log[0]["context"] == 'y": "value}'
    assert "missed the closing quote" in log[1]["text"]


STRICT_ERRORS = [
    ('{"key":"value"}["value"]', "Multiple top-level JSON elements"),
    ('[{"key": "first", "key": "second"}]', "Duplicate key found"),
    ('{"" : "value"}', "Empty key found"),
    ('{"missing" "colon"}', "Missing ':' after key"),
    ('{"key": , "key2": "value2"}', "Parsed value is empty"),
    ('{"dangling"}', "Parsed object is empty"),
    ('{"key": """"}', "doubled quotes followed by another quote"),
]


@pytest.mark.parametrize(("raw", "match"), STRICT_ERRORS)
def test_strict_errors(raw, match):
    with pytest.raises(ValueError, match=match):
        repair_json(raw, strict=True, skip_json_loads=True)


def test_deep_nesting_becomes_value_error():
    payload = ("{a: [" * 10_000) + "1" + ("]}" * 10_000)
    with pytest.raises(ValueError, match="recursion depth"):
        loads(payload)


def test_ensure_ascii_kwarg():
    assert repair_json("{'test_中国人_ascii':'统一码'}", ensure_ascii=False) == '{"test_中国人_ascii": "统一码"}'


def test_file_roundtrip(tmp_path):
    from engine.repair import from_file

    p = tmp_path / "x.json"
    p.write_text('{"a": [1, 2,')
    assert from_file(p) == {"a": [1, 2]}
    assert from_file(p, chunk_length=2) == {"a": [1, 2]}


def test_fenced_block_key_crash_case_is_graceful():
    """The reference crashes (internal AssertionError, parse_object.py:195)
    when a ```json fence appears in object-key context on this adversarial
    input; this engine keeps the repair-or-ValueError contract instead.
    Found by differential fuzzing (30k trials, sole divergence)."""
    raw = ".,{”```json:1_0] 'None\\1/2null```jsonx}"
    with pytest.raises(ValueError, match="Missing ':' after key"):
        repair_json(raw, return_objects=True, strict=True, skip_json_loads=True)
    # non-strict mode must also not crash
    result = repair_json(raw, return_objects=True, skip_json_loads=True)
    assert isinstance(result, (dict, list, str, int, float, bool, type(None)))


@pytest.mark.parametrize("raw", [
    # Each found by differential fuzzing as the sole divergence of a long
    # run; all crash the REFERENCE with the same internal AssertionError
    # (parse_object.py:195 — ```json fence reached in key context).
    '/*x*/\'k\'k:.1/2key”x,{,\\\\"```json{\'k\'None/*x*/```json\t...{"a":1}',   # 125k trials
    'k:``,{”```json```[1,2]',                                             # 205k trials
    '{"a":1}``\\“12.51_0-```json.]"k":1_0("k":,{\'```json```{```None...-',  # 165k trials (stream_stable)
    '"x,\nfalse"v"{\n\\"```json}11e3”```json[1,2]',                        # 125k trials (skip_json_loads)
])
def test_fence_in_key_crash_cases_are_graceful(raw):
    """Instances of the reference's parse_object.py:195 AssertionError where
    this engine repairs instead of crashing (intentional divergences)."""
    import json as _json

    result = repair_json(raw, return_objects=True, logging=True)
    value, log = result
    _json.dumps(value)                 # JSON-compatible
    assert isinstance(log, list) and log
    # the stream_stable path must be graceful on these inputs too
    _json.dumps(repair_json(raw, return_objects=True, stream_stable=True))


LOADS_COLUMN_CASES = [
    '{"k": 1}', ' {"k": 1}', '{"k": 1} \n', '\t[1, 2]\r\n',          # whitespace
    '{"k": 1} x', '{"k": 1}{"k": 2}', '[1] [2]',                       # trailing data
    "NaN", "[Infinity, -Infinity, NaN]", '{"k": NaN}',
    "123456789012345678901234567890", '{"k": 18446744073709551616}',   # ints > 2^63
    "1", "-0", "-0.0", "1.5e3", '"s"', "true", "null", "[]",          # non-objects
    '{"k": 1, "k": 2}',                                                # duplicate keys
    '"\\u00e9\\n\\t\\"\\\\\\/"', '{"a\\u0000b": "\\ud83d\\ude00"}',     # escapes
    '"\\ud800"', '"\\udc00x"', '"\ud800"',                             # lone surrogates
    "\ufeff{\"k\": 1}", '"\x01"',                                 # BOM, raw control char
    '{"k": 1', "{'k': 2}", '{"k": 3,}', '{"k": }', "", "   ", "abc",   # malformed
    b'{"k": 4}',
]


def test_loads_column_gives_what_json_loads_gives():
    """Each value parses as ``json.loads`` parses it; a value ``json.loads``
    refuses gets the tolerant parse; NULL and a value the tolerant parser
    refuses with ValueError give None."""
    import json

    from engine.repair.api import loads_column

    def one(s):
        if s is None:
            return None
        try:
            return json.loads(s)
        except ValueError:
            try:
                return loads(s, skip_json_loads=True)
            except ValueError:
                return None

    too_deep = ("{a: [" * 10_000) + "1" + ("]}" * 10_000)
    values = [*LOADS_COLUMN_CASES, None, too_deep]
    got = loads_column(values)
    assert len(got) == len(values)
    for s, v in zip(values, got):
        assert repr(v) == repr(one(s)), s
    assert got[-1] is None and got[-2] is None
    assert repr(loads_column(["NaN"])[0]) == "nan"
    assert type(loads_column(['{"k": 18446744073709551616}'])[0]["k"]) is int
