"""Seeded fuzzing of the CLI: every mutated model must end with a documented
exit code (0/2/3/4/5), never with an escaped exception. Exits 2-5 write
exactly one ``error:`` line on stderr; exit 5 also writes its report, which
names each feature's error. A ``batch`` run over each corpus agrees with the
``params`` run of every model in it. Models are mutated by Part-21 token, by
JSON structure, and by byte, which can leave text that is not UTF-8."""
import copy
import json
import random
import re

from conftest import fixture_path
from punchplan.cli import main

DOCUMENTED_EXITS = {0, 2, 3, 4, 5}
CASES = 300
COMMANDS = ("params", "inspect", "features")
ONE_ERROR_LINE = re.compile(r"error: [^\n]*\n")

# Tokens of the fixture text, coarse enough to mutate one argument at a time.
STEP_TOKEN = re.compile(r"'(?:[^']|'')*'|#\d+|\.[A-Z_]+\.|[-+.\dE]+|[A-Z_][A-Z0-9_-]*|\s+|.")
NUMBER = re.compile(r"[-+]?\d*\.\d*(?:E[-+]?\d+)?|[-+]?\d+")
REPLACEMENTS = ("0.", "-0.", "-5.", "1.E9", "#1", "''", "'x'", "$", "*", "()", ".T.", ".F.")


def _exits(capsys, tmp_path, name: str, data: bytes, commands: tuple[str, ...]) -> dict[str, int]:
    """Run ``commands`` on the model; check each failure's stderr; return the exit codes."""
    # Each case gets fresh files: replacing an existing file can cost tens of
    # milliseconds on a journalling file system, creating one does not.
    model = tmp_path / name
    model.write_bytes(data)
    codes = {}
    for command in commands:
        argv = [command, str(model)]
        if command == "params":
            argv += ["--out", str(model.with_suffix(".report.json"))]
        codes[command] = main(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err, f"{name} {command}: {err}"
        if codes[command]:
            assert ONE_ERROR_LINE.fullmatch(err), f"{name} {command}: {err!r}"
    return codes


def _check_batch(capsys, tmp_path, params_exits: dict[str, int]) -> None:
    """``batch`` the case directory; its index and reports must match each ``params`` run."""
    # A separate output directory (batch reads only files): batch then creates
    # its reports instead of replacing the ones params wrote, which costs far more.
    out_dir = tmp_path / "batch"
    code = main(["batch", str(tmp_path), "--out-dir", str(out_dir)])
    assert "Traceback" not in capsys.readouterr().err
    assert code in (0, 1)
    index = json.loads((out_dir / "index.json").read_text(encoding="utf-8"))
    assert [entry["file"] for entry in index["results"]] == sorted(params_exits)
    for entry in index["results"]:
        name = entry["file"]
        assert (entry["status"] == "ok") == (params_exits[name] in (0, 5)), name
        if entry["status"] == "ok":
            report = f"{name.rsplit('.', 1)[0]}.report.json"
            assert (out_dir / report).read_bytes() == (tmp_path / report).read_bytes(), name
        else:
            assert "\n" not in entry["error"], name
    assert code == (0 if all(entry["status"] == "ok" for entry in index["results"]) else 1)


def _mutate_step(tokens: list[str], rng: random.Random) -> str:
    tokens = list(tokens)
    for _ in range(rng.choice((1, 1, 2, 3))):
        i = rng.randrange(len(tokens))
        tok = tokens[i]
        op = rng.randrange(5)
        if op == 0:
            del tokens[i]
        elif op == 1:
            tokens.insert(i, tok)
        elif op == 2 and tok.startswith("#"):
            tokens[i] = rng.choice([t for t in tokens if t.startswith("#")])
        elif op == 3 and tok in (".T.", ".F."):
            tokens[i] = ".F." if tok == ".T." else ".T."
        elif op == 4 and NUMBER.fullmatch(tok):
            tokens[i] = "0."
        else:
            tokens[i] = rng.choice(REPLACEMENTS)
    return "".join(tokens)


def test_step_token_mutations_exit_cleanly(capsys, tmp_path):
    tokens = STEP_TOKEN.findall(fixture_path("flat_sheet_100x80x2.step").read_text(encoding="utf-8"))
    rng = random.Random(20240521)
    params_exits = {}
    for case in range(CASES):
        text = _mutate_step(tokens, rng)
        codes = _exits(capsys, tmp_path, f"case{case}.step", text.encode(), COMMANDS)
        for command, code in codes.items():
            assert code in DOCUMENTED_EXITS, f"case {case} {command}: exit {code}"
        params_exits[f"case{case}.step"] = codes["params"]
    _check_batch(capsys, tmp_path, params_exits)


def _lists(node, out: list) -> list:
    """Every list in the document that holds objects (items to drop or duplicate)."""
    if isinstance(node, dict):
        for value in node.values():
            _lists(value, out)
    elif isinstance(node, list) and node and isinstance(node[0], dict):
        out.append(node)
        for item in node:
            _lists(item, out)
    return out


def _mutate_json(text: str, rng: random.Random) -> dict:
    doc = json.loads(text)
    op = rng.randrange(5)
    if op == 0:
        items = rng.choice(_lists(doc, []))
        del items[rng.randrange(len(items))]
    elif op == 1:
        items = rng.choice(_lists(doc, []))
        items.append(copy.deepcopy(rng.choice(items)))
    elif op == 2:
        vertex = rng.choice(doc["vertices"])
        vertex[rng.choice("xyz")] = 0
    elif op == 3:
        shapes = [f["surface"] for f in doc["faces"]] + [e["curve"] for e in doc["edges"]]
        geometry = rng.choice([g for g in shapes if len(g) > 1])
        key = rng.choice([k for k in geometry if k != "kind"])
        geometry[key] = [0, 0, 0] if isinstance(geometry[key], list) else 0
    else:
        target = rng.choice(["sense", "same_sense", "outer", "vertex"])
        if target == "sense":
            oriented = rng.choice(rng.choice(doc["loops"])["oriented_edges"])
            oriented["sense"] = not oriented["sense"]
        elif target == "same_sense":
            face = rng.choice(doc["faces"])
            face["same_sense"] = not face["same_sense"]
        elif target == "outer":
            bound = rng.choice(rng.choice(doc["faces"])["bounds"])
            bound["outer"] = not bound["outer"]
        else:
            moved, onto = rng.sample(doc["vertices"], 2)
            moved.update(x=onto["x"], y=onto["y"], z=onto["z"])
    return doc


def test_json_structural_mutations_exit_cleanly(capsys, tmp_path):
    original = fixture_path("row4_bridge.json").read_text(encoding="utf-8")
    rng = random.Random(20240522)
    params_exits = {}
    for case in range(CASES):
        text = json.dumps(_mutate_json(original, rng))
        codes = _exits(capsys, tmp_path, f"case{case}.json", text.encode(), COMMANDS)
        for command, code in codes.items():
            assert code in DOCUMENTED_EXITS, f"case {case} {command}: exit {code}"
        params_exits[f"case{case}.json"] = codes["params"]
    _check_batch(capsys, tmp_path, params_exits)


# Byte sequences to splice in: valid UTF-8 (e acute, euro sign, a byte-order
# mark), and sequences UTF-8 never makes (a lone continuation byte, 0xff, an
# overlong slash, an encoded surrogate, a cut-off three-byte sequence).
BYTE_INSERTS = (b"\xc3\xa9", b"\xe2\x82\xac", b"\xef\xbb\xbf", b"\x80", b"\xff",
                b"\xc0\xaf", b"\xed\xa0\x80", b"\xe2\x82")


def _mutate_bytes(data: bytes, rng: random.Random) -> bytes:
    data = bytearray(data)
    # Just past a quote: inside a string (or a JSON key) half of the time,
    # where valid UTF-8 is accepted.
    quoted = [i + 1 for i, byte in enumerate(data) if byte in b"'\""]
    for _ in range(rng.choice((1, 1, 2))):
        op = rng.randrange(4)
        if op < 2:
            i = rng.choice(quoted) if op == 0 else rng.randrange(len(data) + 1)
            data[i:i] = rng.choice(BYTE_INSERTS)
        elif op == 2:
            data[rng.randrange(len(data))] = rng.randrange(256)
        else:
            del data[rng.randrange(1, len(data) + 1):]  # keeps a byte; may cut a sequence short
    return bytes(data)


def test_byte_mutations_exit_cleanly(capsys, tmp_path):
    rng = random.Random(20240523)
    params_exits = {}
    for fixture in ("flat_sheet_100x80x2.step", "row4_bridge.json"):
        original = fixture_path(fixture).read_bytes()
        suffix = fixture.rsplit(".", 1)[1]
        for case in range(CASES // 2):
            name = f"{suffix}{case}.{suffix}"  # distinct stems: one report name each
            codes = _exits(capsys, tmp_path, name, _mutate_bytes(original, rng), COMMANDS)
            for command, code in codes.items():
                assert code in DOCUMENTED_EXITS, f"{name} {command}: exit {code}"
            params_exits[name] = codes["params"]
    _check_batch(capsys, tmp_path, params_exits)
