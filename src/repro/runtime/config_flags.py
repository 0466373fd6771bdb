"""One declaration per knob: ``#:`` field docs and the CLI flags derived from them.

A config knob is a dataclass field with a ``#:`` comment block directly above
it (the Sphinx attribute-doc convention).  :func:`field_docs` reads those
blocks from the class source; ``scripts/gen_config_docs.py`` renders them into
``docs/config.md``, and :func:`add_config_flags` turns chosen fields into
``python -m repro`` flags whose help text is that same doc.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import inspect
import re
import typing
from typing import Any, Callable, Dict, Sequence, Tuple


def _strip_rst(text: str) -> str:
    """Reduce the rst/Sphinx markup used in source comments to plain markdown."""
    text = re.sub(r":(?:class|meth|func|mod|attr|data):`~?([^`]+)`", r"`\1`", text)
    return text.replace("``", "`")


def field_docs(cls: type) -> Dict[str, Tuple[str, str]]:
    """``name -> (annotation, doc)`` for every field of dataclass ``cls``.

    The doc is the ``#:`` block above the field.  A field without one raises
    :class:`ValueError` naming its source line: undocumented knobs fail CI.
    """
    lines, first_line = inspect.getsourcelines(cls)
    klass = ast.parse("".join(lines)).body[0]
    found: Dict[str, Tuple[str, str, int]] = {}
    for stmt in klass.body:
        if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
            continue
        block = []
        row = stmt.lineno - 2  # line above the field, 0-indexed
        while row >= 0 and lines[row].strip().startswith("#:"):
            block.insert(0, lines[row].strip()[2:].strip())
            row -= 1
        doc = _strip_rst(" ".join(block))
        found[stmt.target.id] = (ast.unparse(stmt.annotation), doc, first_line + stmt.lineno - 1)
    docs = {}
    for field in dataclasses.fields(cls):
        annotation, doc, line = found.get(field.name, ("", "", first_line))
        if not doc:
            raise ValueError(
                f"{inspect.getsourcefile(cls)}:{line}: "
                f"{cls.__name__}.{field.name} has no '#:' doc comment"
            )
        docs[field.name] = (annotation, doc)
    return docs


def _flag_type(hint: Any) -> Tuple[Callable[[str], Any], str]:
    """argparse ``type`` and metavar for a field hint; ``Optional`` accepts ``none``."""
    optional = type(None) in typing.get_args(hint)
    kind = next(arg for arg in typing.get_args(hint) if arg is not type(None)) if optional else hint
    if kind not in (int, float, str):
        raise TypeError(f"no command-line form for a field of type {hint!r}")

    def convert(text: str) -> Any:
        return None if optional and text == "none" else kind(text)

    convert.__name__ = kind.__name__  # argparse says "invalid int value: ..."
    return convert, kind.__name__.upper() + ("|none" if optional else "")


def add_config_flags(
    parser: argparse.ArgumentParser, base: Any, names: Sequence[str]
) -> Callable[..., Any]:
    """Register ``--field-name`` on ``parser`` for each of ``names`` (fields of ``base``).

    Type, help text and default all come from the dataclass: the help is the
    field's ``#:`` doc plus ``base``'s value, and a flag left off the command
    line keeps that value.  Returns ``build(args, **fixed)``, which makes the
    config as ``dataclasses.replace(base, **given, **fixed)`` where ``given``
    holds the flags actually passed.
    """
    hints = typing.get_type_hints(type(base))
    docs = field_docs(type(base))
    for name in names:
        convert, metavar = _flag_type(hints[name])
        value = getattr(base, name)
        default = "none" if value is None else value
        parser.add_argument(
            "--" + name.replace("_", "-"),
            dest=name,
            type=convert,
            metavar=metavar,
            default=argparse.SUPPRESS,
            help=f"{docs[name][1]} (default: {default})".replace("%", "%%"),
        )

    def build(args: argparse.Namespace, **fixed: Any) -> Any:
        given = {name: getattr(args, name) for name in names if hasattr(args, name)}
        return dataclasses.replace(base, **given, **fixed)

    return build
