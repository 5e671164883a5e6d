"""Reader, parser, and canonical serializer for ctxflow's input files.

Every input file is read whole as bytes and decoded once as UTF-8, less one
leading byte order mark (`read_text`). Its lines end at every boundary that
``str.splitlines`` knows, and blank lines and lines starting with ``#`` are
skipped (`_lines`). A value catalog (`.kv`) holds one ``key=value`` pair per
line, each key a unique macro token. Workflow scripts (`.mac`) and context
documents (`.ctx`) share one grammar: a statement is a single line of
whitespace-separated tokens. The first token is an element name unless it is
one of the keywords ``attach``, ``framework``, ``namespace``,
``contextBlock`` or ``end``. ``attach NAME terminal`` attaches a metadata
terminal; in a context document a bare ``attach NAME`` does too.

Attribute values are single tokens. A value of the form ``::<name>:<attr>``
is a reference (a metadata flow from another element, or from the command
line when ``<name>`` is ``@args``), split at its last colon, so a name may
hold ``:`` and an attribute may not; anything else is a literal. The
malformed separator ``:;`` is rejected.
"""

from __future__ import annotations

import os

from .errors import CtxflowError, KvSourceError, MacroSyntaxError, UnclosedBlockError
from .model import FlowRef, HeaderPattern, Record

KEYWORDS = {"attach", "framework", "namespace", "contextBlock", "end"}

# Verbs that may follow an element name. A block directive is an element
# statement without the name; naming a dependency needs an element.
_ELEMENT_VERBS = {"adddep", "define", "oncall", "add", "namespace", "check"}
_BLOCK_VERBS = _ELEMENT_VERBS - {"adddep"}

# Statements. `element` is None in a block directive, a `value` is a literal
# or a FlowRef, a `pattern` a HeaderPattern and `tasks` a tuple of names.


class Attach(Record, defaults={"is_terminal": False}):
    __slots__ = ("name", "is_terminal")


class AddDep(Record):
    __slots__ = ("element", "target")


class Define(Record):
    __slots__ = ("element", "key", "value")


class FrameworkDefine(Record):
    __slots__ = ("group", "tasks")


class FrameworkRun(Record):
    __slots__ = ()


class NamespaceAdd(Record, defaults={"element": None}):
    __slots__ = ("alias", "pattern", "element")


class Oncall(Record):
    __slots__ = ("element", "task", "handler")


class AddDependencyPattern(Record):
    __slots__ = ("element", "pattern")


class Check(Record):
    __slots__ = ("element", "key", "value")


Statement = (
    Attach
    | AddDep
    | Define
    | FrameworkDefine
    | FrameworkRun
    | NamespaceAdd
    | Oncall
    | AddDependencyPattern
    | Check
)


class ContextBlockAst(Record):
    """A header pattern plus directives applied to every matching element."""

    __slots__ = ("header", "body")


class ContextDocumentAst(Record):
    """Blocks and top-level statements of one context document, in order."""

    __slots__ = ("id", "items")


def parse_value(token: str, line_no: int) -> str | FlowRef:
    if token.startswith(":;"):
        raise MacroSyntaxError(line_no, f"malformed reference separator ':;' in {token!r}")
    if token.startswith("::"):
        body = token[2:]
        name, sep, attr = body.rpartition(":")
        if not sep or not name or not attr:
            raise MacroSyntaxError(line_no, f"malformed reference {token!r}, expected ::name:attr")
        return FlowRef(name, attr)
    return token


def _parse_pattern(token: str, line_no: int) -> HeaderPattern:
    try:
        return HeaderPattern.parse(token)
    except ValueError as exc:
        raise MacroSyntaxError(line_no, str(exc)) from exc


def _parse_element_statement(tokens: list[str], line_no: int, element: str | None = None) -> Statement:
    """Parse ``<verb> ...`` (`tokens` start at the verb) as a statement of
    `element`, or as a block directive when `element` is None."""
    verb = tokens[0]
    rest = tokens[1:]
    if verb == "adddep" and len(rest) == 1:
        return AddDep(element, rest[0])
    if verb == "define" and len(rest) == 2:
        return Define(element, rest[0], parse_value(rest[1], line_no))
    if verb == "oncall" and len(rest) == 3 and rest[1] == "do":
        return Oncall(element, rest[0], rest[2])
    if verb == "add" and len(rest) == 2 and rest[0] == "dependency":
        return AddDependencyPattern(element, _parse_pattern(rest[1], line_no))
    if verb == "namespace" and len(rest) == 3 and rest[0] == "add":
        return NamespaceAdd(rest[1], _parse_pattern(rest[2], line_no), element=element)
    if verb == "check" and len(rest) == 2:
        return Check(element, rest[0], parse_value(rest[1], line_no))
    if element is None:
        raise MacroSyntaxError(line_no, f"unrecognized block directive: {' '.join(tokens)!r}")
    raise MacroSyntaxError(line_no, f"unrecognized statement: {' '.join([element, *tokens])!r}")


def _parse_statement(tokens: list[str], line_no: int) -> Statement:
    head = tokens[0]
    if head == "attach":
        if len(tokens) == 2 or len(tokens) == 3 and tokens[2] == "terminal":
            return Attach(tokens[1], len(tokens) == 3)
        raise MacroSyntaxError(line_no, "attach takes exactly one element name")
    if head == "framework":
        if len(tokens) == 2 and tokens[1] == "run":
            return FrameworkRun()
        if len(tokens) == 4 and tokens[1] == "define":
            tasks = tuple(t for t in tokens[3].split(",") if t)
            if not tasks:
                raise MacroSyntaxError(line_no, "framework define needs a task list")
            return FrameworkDefine(tokens[2], tasks)
        raise MacroSyntaxError(line_no, f"unrecognized framework statement: {' '.join(tokens)!r}")
    if head == "namespace":
        if len(tokens) == 4 and tokens[1] == "add":
            return NamespaceAdd(tokens[2], _parse_pattern(tokens[3], line_no))
        raise MacroSyntaxError(line_no, f"unrecognized namespace statement: {' '.join(tokens)!r}")
    if head == "end":
        raise MacroSyntaxError(line_no, "'end' outside a contextBlock")
    if len(tokens) >= 2 and tokens[1] in _ELEMENT_VERBS:
        return _parse_element_statement(tokens[1:], line_no, tokens[0])
    raise MacroSyntaxError(line_no, f"unrecognized statement: {' '.join(tokens)!r}")


def read_text(path) -> str:
    """The text of the input file at `path`, without a leading byte order
    mark. Line ends are kept as they are: `_lines` splits at each of them."""
    try:
        with open(path, "rb", buffering=0) as file:
            text = file.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CtxflowError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
    # Not the utf-8-sig codec: it counts a decode error's byte from after the BOM.
    return text.removeprefix("\ufeff")


def _lines(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def parse_workflow(text: str) -> list[Statement]:
    """Parse a workflow document into statements in source order."""
    statements: list[Statement] = []
    for line_no, line in _lines(text):
        tokens = line.split()
        if tokens[0] == "contextBlock":
            raise MacroSyntaxError(line_no, "contextBlock not allowed in a workflow document")
        statements.append(_parse_statement(tokens, line_no))
    return statements


_TOPLEVEL_CONTEXT = (Attach, FrameworkDefine, NamespaceAdd)


def parse_context(text: str, id: str) -> ContextDocumentAst:
    """Parse a context document: blocks plus restricted top-level statements."""
    items: list[Statement | ContextBlockAst] = []
    block: ContextBlockAst | None = None
    block_line = 0
    for line_no, line in _lines(text):
        tokens = line.split()
        if block is not None:
            if tokens == ["end"]:
                items.append(block)
                block = None
            elif tokens[0] == "contextBlock":
                raise MacroSyntaxError(line_no, "contextBlock may not nest")
            elif tokens[0] in _BLOCK_VERBS:
                block.body.append(_parse_element_statement(tokens, line_no))
            else:
                raise MacroSyntaxError(line_no, f"statement not allowed in a block: {' '.join(tokens)!r}")
            continue
        if tokens[0] == "contextBlock":
            if len(tokens) != 2:
                raise MacroSyntaxError(line_no, "contextBlock takes exactly one header pattern")
            block = ContextBlockAst(_parse_pattern(tokens[1], line_no), [])
            block_line = line_no
            continue
        statement = _parse_statement(tokens, line_no)
        if not isinstance(statement, _TOPLEVEL_CONTEXT) or isinstance(statement, NamespaceAdd) and statement.element:
            raise MacroSyntaxError(
                line_no, f"only attach, framework define and namespace add allowed at top level: {' '.join(tokens)!r}"
            )
        items.append(statement)
    if block is not None:
        raise UnclosedBlockError(block_line, "contextBlock without matching 'end'")
    return ContextDocumentAst(id, items)


def render_statement(statement: Statement) -> str:
    """Canonical one-line text of a statement (element prefix included).

    For statements inside a block body render with ``element=None``; the
    element prefix is then omitted. A key or a literal value of a define or
    a check that would not parse back as the same token (empty, containing
    whitespace, or starting with ``::`` or ``:;``) is an error.
    """
    prefix = ""
    element = getattr(statement, "element", None)
    if element:
        prefix = f"{element} "
    match statement:
        case Attach(name, is_terminal):
            return f"attach {name} terminal" if is_terminal else f"attach {name}"
        case AddDep(owner, target):
            return f"{owner} adddep {target}"
        case Define(_, key, value):
            _require_tokens(element, key, value)
            return f"{prefix}define {key} {value}"
        case FrameworkDefine(group, tasks):
            return f"framework define {group} {','.join(tasks)}"
        case FrameworkRun():
            return "framework run"
        case NamespaceAdd(alias, pattern, _):
            return f"{prefix}namespace add {alias} {pattern.canonical()}"
        case Oncall(_, task, handler):
            return f"{prefix}oncall {task} do {handler}"
        case AddDependencyPattern(_, pattern):
            return f"{prefix}add dependency {pattern.canonical()}"
        case Check(_, key, value):
            _require_tokens(element, key, value)
            return f"{prefix}check {key} {value}"
    raise TypeError(f"not a statement: {statement!r}")


def is_token(text: str) -> bool:
    """True when `text` reads back from a macro line as the same plain
    token: non-empty, no whitespace, not starting with ``::`` or ``:;``."""
    return text.split() == [text] and not text.startswith(("::", ":;"))


def _require_tokens(element: str | None, key: str, value: str | FlowRef) -> None:
    where = f"{element}.{key}" if element else key
    if not is_token(key):
        raise CtxflowError(f"attribute {where}: key {key!r} is not a macro token, cannot emit it")
    if isinstance(value, str) and not is_token(value):
        raise CtxflowError(f"attribute {where}: literal {value!r} is not a macro token, cannot emit it")


def serialize(statements) -> str:
    """Serialize statements to canonical macro text, one statement per line."""
    return "".join(render_statement(s) + "\n" for s in statements)


def parse_kv_text(text: str, name: str = "<kv>") -> dict[str, str]:
    data: dict[str, str] = {}
    for line_no, line in _lines(text):
        key, sep, value = line.partition("=")
        if not sep:
            raise KvSourceError(f"{name} line {line_no}: expected key=value")
        if not key:
            raise KvSourceError(f"{name} line {line_no}: empty key")
        if not is_token(key):
            raise KvSourceError(f"{name} line {line_no}: key {key!r} is not a macro token")
        if key in data:
            raise KvSourceError(f"{name} line {line_no}: duplicate key {key}")
        data[key] = value
    return data


def parse_kv_file(path: str | os.PathLike) -> dict[str, str]:
    try:
        return parse_kv_text(read_text(path), name=str(path))
    except OSError as exc:
        raise KvSourceError(f"cannot read kv file {path}: {exc}") from exc


class KvSource(Record):
    """A kv file serving elements whose description contains `description`."""

    __slots__ = ("description", "path")

    def origin(self) -> str:
        """The file name of `path`, which the log shows as its values' origin."""
        return os.path.basename(self.path)

    def load(self) -> dict[str, str]:
        return parse_kv_file(self.path)
