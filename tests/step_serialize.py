"""Part-21 writer for the parser's round-trip tests: entity records back to text."""
from punchplan.step import DERIVED, UNSET, Enum, EntityRecord, ExchangeStructure, Ref, SimpleEntity


def _fmt_real(x: float) -> str:
    s = repr(x)
    if "e" in s or "E" in s:
        mantissa, _, exp = s.partition("e" if "e" in s else "E")
        if "." not in mantissa:
            mantissa += "."
        return f"{mantissa}E{exp}"
    if "." not in s:
        s += "."
    return s


def _fmt_arg(value) -> str:
    if value is UNSET:
        return "$"
    if value is DERIVED:
        return "*"
    if isinstance(value, bool):
        return ".T." if value else ".F."
    if isinstance(value, Enum):
        return f".{value.name}."
    if isinstance(value, Ref):
        return f"#{value.id}"
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, float):
        return _fmt_real(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, tuple):
        return "(" + ",".join(_fmt_arg(a) for a in value) + ")"
    raise TypeError(f"cannot serialize argument {value!r}")


def _fmt_entity(rec: EntityRecord) -> str:
    if isinstance(rec, SimpleEntity):
        return f"{rec.keyword}({','.join(_fmt_arg(a) for a in rec.args)})"
    inner = " ".join(f"{kw}({','.join(_fmt_arg(a) for a in args)})" for kw, args in rec.parts)
    return f"( {inner} )"


def serialize_exchange(xs: ExchangeStructure) -> str:
    """Write the structure back to Part-21 text (stable entity-id order) under
    one fixed HEADER."""
    lines = ["ISO-10303-21;", "HEADER;", "FILE_DESCRIPTION((''),'2;1');",
             "FILE_NAME('','',(''),(''),'','','');", "FILE_SCHEMA(('CONFIG_CONTROL_DESIGN'));",
             "ENDSEC;", "DATA;"]
    for eid in sorted(xs.entities):
        lines.append(f"#{eid}={_fmt_entity(xs.entities[eid])};")
    lines.append("ENDSEC;")
    lines.append("END-ISO-10303-21;")
    return "\n".join(lines) + "\n"
